//! The public items no program reaches, found by the compiler.
//!
//! ```bash
//! cargo run -q -p apt-bench --bin deadcode
//! ```
//!
//! For each crate `C` under `crates/`, in a scratch copy of the tree:
//!
//! 1. each grouped `pub use a::{X, Y};` in `C/src` is split into one
//!    `pub use` per name, so that reaching `X` does not keep `Y` public;
//!    then every line-leading `pub` before an item keyword becomes
//!    `pub(crate)` (fields keep theirs);
//! 2. every program is checked: the workspace's libs, bins and examples,
//!    then the `benchmark/` package;
//! 3. each privacy error names an item of `C` that another crate reaches,
//!    and that item gets its `pub` back; 2–3 repeat until both are clean;
//! 4. `cargo check -p C --lib` then warns `dead_code` on exactly the items
//!    no lib, bin, example or benchmark reaches, directly or through
//!    another item.
//!
//! Tests are not users: no `#[cfg(test)]` code or `tests/` file is built.
//! Prints one sorted line per dead item, `<path> <name>`; CI diffs the
//! list against `crates/bench/deadcode.allow`. Blind spots: variants of a
//! `pub` enum and fields of a `pub` struct (they are as visible as their
//! type), trait methods (they carry no `pub`), and code this target
//! compiles out (`cfg(target_arch)`).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The keywords a line-leading `pub` is rewritten in front of.
const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
];

fn main() -> ExitCode {
    match run() {
        Ok(dead) => {
            for line in dead {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("deadcode: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<Vec<String>, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root
        .canonicalize()
        .map_err(|e| format!("{}: {e}", root.display()))?;
    let scratch = std::env::temp_dir().join(format!("apt-deadcode-{}", std::process::id()));
    let result = copy_tree(&root, &scratch, &skipped(&root))
        .map_err(|e| format!("copying the tree to {}: {e}", scratch.display()))
        .and_then(|()| all_dead(&scratch));
    let _ = fs::remove_dir_all(&scratch);
    result
}

/// Paths left out of the copy: `.git` and the root-anchored `.gitignore`
/// entries (`/target`, `/results`, …). A fresh copy of every file also has
/// a fresh mtime, so cargo rebuilds nothing from a stale fingerprint.
fn skipped(root: &Path) -> Vec<PathBuf> {
    let ignore = fs::read_to_string(root.join(".gitignore")).unwrap_or_default();
    ignore
        .lines()
        .filter_map(|l| l.trim().strip_prefix('/'))
        .map(|l| root.join(l.trim_end_matches('/')))
        .chain([root.join(".git")])
        .collect()
}

fn copy_tree(from: &Path, to: &Path, skip: &[PathBuf]) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let path = entry?.path();
        let dest = to.join(path.file_name().expect("a directory entry has a name"));
        if skip.contains(&path) {
            continue;
        } else if path.is_dir() {
            copy_tree(&path, &dest, skip)?;
        } else {
            fs::copy(&path, &dest)?;
        }
    }
    Ok(())
}

fn all_dead(scratch: &Path) -> Result<Vec<String>, String> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(scratch.join("crates"))
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    let mut dead = Vec::new();
    for dir in dirs.iter().map(|d| relative(scratch, d)) {
        let found = crate_dead(scratch, &dir)?;
        eprintln!("{dir}: {} dead", found.len());
        dead.extend(found);
    }
    dead.sort();
    Ok(dead)
}

/// Steps 1–4 for the crate in `dir` (relative to `scratch`); its files
/// are back as they were after.
fn crate_dead(scratch: &Path, dir: &str) -> Result<Vec<String>, String> {
    let mut paths = Vec::new();
    rust_files(&scratch.join(dir).join("src"), &mut paths).map_err(|e| e.to_string())?;
    let mut files = Vec::new();
    for path in &paths {
        let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
        files.push((relative(scratch, path), text));
    }
    let mut krate = Crate::privatised(&format!("{dir}/src"), &files);
    let result = fixpoint(scratch, &mut krate).map(|()| {
        let (_, lib) = cargo(
            scratch,
            &format!("check --lib --manifest-path {dir}/Cargo.toml"),
        );
        krate.dead(&lib)
    });
    for (path, text) in &files {
        fs::write(scratch.join(path), text).map_err(|e| e.to_string())?;
    }
    result
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `scratch`, `/`-separated, as rustc prints it.
fn relative(scratch: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(scratch).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Steps 2–3: check everything, restore what the errors name, repeat.
fn fixpoint(scratch: &Path, krate: &mut Crate) -> Result<(), String> {
    let programs = "check --keep-going --workspace --lib --bins --examples";
    let benchmark = "check --keep-going --manifest-path benchmark/Cargo.toml";
    loop {
        for (path, text) in krate.changed() {
            fs::write(scratch.join(path), text).map_err(|e| e.to_string())?;
        }
        let (ok_programs, out_programs) = cargo(scratch, programs);
        let (ok_benchmark, out_benchmark) = cargo(scratch, benchmark);
        if ok_programs && ok_benchmark {
            return Ok(());
        }
        let output = format!("{out_programs}\n{out_benchmark}");
        // `benchmark/` prints the paths outside its own tree absolute.
        let output = output.replace(&format!("{}/", scratch.display()), "");
        if krate.restore(&output) == 0 {
            return Err(format!("no privacy error to act on in:\n{output}"));
        }
    }
}

/// Runs cargo with the space-separated `args`, offline and colourless, in
/// `scratch` with its own target directory; returns (success, stderr).
fn cargo(scratch: &Path, args: &str) -> (bool, String) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args(args.split(' '))
        .args(["--offline", "--color", "never"])
        .current_dir(scratch)
        .env("CARGO_TARGET_DIR", scratch.join("target"))
        .output();
    match out {
        Ok(out) => (
            out.status.success(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        ),
        Err(e) => (false, format!("error: cannot run cargo: {e}")),
    }
}

/// One source file of the crate under analysis, with its rewritten lines.
struct Source {
    path: String,
    /// The file's lines, each with its line ending.
    lines: Vec<String>,
    /// Indices of the lines step 1 rewrote from `pub` to `pub(crate)`.
    rewritten: BTreeSet<usize>,
    /// Those of them that still read `pub(crate)`.
    private: BTreeSet<usize>,
    changed: bool,
}

impl Source {
    fn privatised(path: &str, text: &str) -> Source {
        let mut lines = split_grouped_uses(text);
        let mut rewritten = BTreeSet::new();
        for (i, line) in lines.iter_mut().enumerate() {
            let body = line.trim_start();
            let indent = line.len() - body.len();
            let Some(rest) = body.strip_prefix("pub ") else {
                continue;
            };
            let keyword = rest.split(|c: char| !c.is_alphanumeric()).next();
            if keyword.is_some_and(|k| ITEM_KEYWORDS.contains(&k)) {
                *line = format!("{}pub(crate) {rest}", &line[..indent]);
                rewritten.insert(i);
            }
        }
        let private = rewritten.clone();
        Source {
            path: path.to_owned(),
            lines,
            rewritten,
            private,
            changed: true,
        }
    }

    fn restore(&mut self, i: usize) -> bool {
        if !self.private.remove(&i) {
            return false;
        }
        self.lines[i] = self.lines[i].replacen("pub(crate) ", "pub ", 1);
        self.changed = true;
        true
    }

    /// The rewritten line a location at 1-based `line` belongs to: that
    /// line itself, or the `use` statement it falls in.
    fn owner(&self, line: usize) -> Option<usize> {
        let at = line.checked_sub(1)?;
        let &start = self.rewritten.range(..=at).next_back()?;
        (start == at || self.is_use(start) && self.statement_end(start) >= at).then_some(start)
    }

    fn is_use(&self, i: usize) -> bool {
        let item = self.lines[i].trim_start();
        let item = item
            .strip_prefix("pub(crate) ")
            .or_else(|| item.strip_prefix("pub "));
        item.is_some_and(|item| item.starts_with("use "))
    }

    /// The line holding the `;` that ends the statement starting at `i`.
    fn statement_end(&self, i: usize) -> usize {
        (i..self.lines.len())
            .find(|&j| self.lines[j].contains(';'))
            .unwrap_or(i)
    }

    /// Rewritten lines that define `name` or are a `use` statement naming it.
    fn naming(&self, name: &str) -> Vec<usize> {
        self.private
            .iter()
            .copied()
            .filter(|&i| {
                if self.is_use(i) {
                    let statement = self.lines[i..=self.statement_end(i)].concat();
                    words(&statement).contains(&name)
                } else {
                    defined_name(&self.lines[i]) == Some(name)
                }
            })
            .collect()
    }
}

/// `text`'s lines, each with its line ending, with every grouped
/// `pub use a::{X, Y};` made one `pub use a::X;` line per name. A group
/// that nests braces, or follows an attribute that would then cover only
/// its first name, stays as written.
fn split_grouped_uses(text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let mut out = Vec::with_capacity(lines.len());
    let mut i = 0;
    while i < lines.len() {
        let body = lines[i].trim_start();
        let after_attribute = i > 0 && lines[i - 1].trim_start().starts_with("#[");
        if body.starts_with("pub use ") && !after_attribute {
            let indent = &lines[i][..lines[i].len() - body.len()];
            let end = (i..lines.len())
                .find(|&j| lines[j].contains(';'))
                .unwrap_or(i);
            let statement = lines[i..=end].concat();
            let group = statement
                .trim()
                .strip_prefix("pub use ")
                .and_then(|s| s.strip_suffix("};"))
                .and_then(|s| s.split_once('{'))
                .filter(|(_, names)| !names.contains('{'));
            if let Some((prefix, names)) = group {
                for name in names.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                    out.push(format!("{indent}pub use {prefix}{name};\n"));
                }
                i = end + 1;
                continue;
            }
        }
        out.push(lines[i].to_owned());
        i += 1;
    }
    out
}

/// The identifiers and keywords in `text`.
fn words(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The name a rewritten item line defines: the first word after the
/// visibility that is not a keyword.
fn defined_name(line: &str) -> Option<&str> {
    const PREFIXES: [&str; 12] = [
        "pub", "crate", "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
        "unsafe", "mut",
    ];
    words(line).into_iter().find(|w| !PREFIXES.contains(w))
}

/// The crate under analysis: its files, as currently rewritten.
struct Crate {
    /// `crates/<dir>/src/`: the prefix of every path in it.
    prefix: String,
    files: Vec<Source>,
}

impl Crate {
    /// Step 1: `(path, text)` for each file under `prefix`, privatised.
    fn privatised(prefix: &str, files: &[(String, String)]) -> Crate {
        Crate {
            prefix: format!("{}/", prefix.trim_end_matches('/')),
            files: files
                .iter()
                .map(|(p, t)| Source::privatised(p, t))
                .collect(),
        }
    }

    /// Files changed since the last call, with their text.
    fn changed(&mut self) -> Vec<(String, String)> {
        self.files
            .iter_mut()
            .filter_map(|f| {
                std::mem::take(&mut f.changed).then(|| (f.path.clone(), f.lines.concat()))
            })
            .collect()
    }

    fn file(&mut self, path: &str) -> Option<&mut Source> {
        self.files.iter_mut().find(|f| f.path == path)
    }

    /// Step 3: puts `pub` back on each item the errors in `output` show
    /// another crate reaching. Returns how many lines it restored.
    ///
    /// A re-export error (E0364, E0365) or a code-less "type `a::X` is
    /// private" names the item: every definition of it and every `use`
    /// naming it is restored. Any other error (E0603, E0624) carries
    /// locations: the rewritten line at each one in this crate is restored,
    /// which covers the "defined here" notes.
    fn restore(&mut self, output: &str) -> usize {
        let mut restored = 0;
        for d in diagnostics(output).iter().filter(|d| d.is_error()) {
            if let Some(name) = d.private_name() {
                for file in &mut self.files {
                    for i in file.naming(name) {
                        restored += usize::from(file.restore(i));
                    }
                }
                continue;
            }
            for (path, line) in &d.locations {
                let Some(file) = self.file(path) else {
                    continue;
                };
                if let Some(i) = file.owner(*line) {
                    restored += usize::from(file.restore(i));
                }
            }
        }
        restored
    }

    /// Step 4: `<path> <name>` for each item a `dead_code` warning in
    /// `output` marks in this crate. Names come from the caret spans, since
    /// "multiple associated items are never used" gives none.
    fn dead(&self, output: &str) -> Vec<String> {
        let mut dead: Vec<String> = diagnostics(output)
            .iter()
            .filter(|d| d.is_dead_code())
            .flat_map(|d| &d.carets)
            .filter(|(path, _)| path.starts_with(&self.prefix))
            .map(|(path, name)| format!("{path} {name}"))
            .collect();
        dead.sort();
        dead
    }
}

/// One rustc diagnostic, read from its human-readable form.
#[derive(Debug, Default)]
struct Diagnostic {
    /// The first line: `error[E0603]: struct `X` is private`, `warning: …`.
    header: String,
    /// Every `-->` and `:::` location: (path, 1-based line).
    locations: Vec<(String, usize)>,
    /// The identifier under each run of `^`: (path, identifier).
    carets: Vec<(String, String)>,
}

impl Diagnostic {
    fn is_error(&self) -> bool {
        self.header.starts_with("error") && !self.header.starts_with("error: could not compile")
    }

    fn is_dead_code(&self) -> bool {
        self.header.starts_with("warning: ")
            && ["never used", "never constructed", "never read"]
                .iter()
                .any(|s| self.header.contains(s))
    }

    /// The last path segment of the item a re-export error or a code-less
    /// "type `a::X` is private" names.
    fn private_name(&self) -> Option<&str> {
        let reexport = ["error[E0364]", "error[E0365]"]
            .iter()
            .any(|c| self.header.starts_with(c));
        let type_private =
            self.header.starts_with("error: type `") && self.header.ends_with("` is private");
        if !(reexport || type_private) {
            return None;
        }
        let quoted = self.header.split('`').nth(1)?;
        let path = quoted.split('<').next()?;
        path.rsplit("::").next()
    }
}

/// Splits cargo's stderr into diagnostics.
fn diagnostics(output: &str) -> Vec<Diagnostic> {
    let mut all: Vec<Diagnostic> = Vec::new();
    let mut path = String::new();
    let mut source = "";
    for line in output.lines() {
        if line.starts_with("error") || line.starts_with("warning") {
            all.push(Diagnostic {
                header: line.to_owned(),
                ..Diagnostic::default()
            });
            continue;
        }
        let Some(d) = all.last_mut() else {
            continue;
        };
        let trimmed = line.trim_start();
        if let Some(at) = trimmed
            .strip_prefix("--> ")
            .or_else(|| trimmed.strip_prefix("::: "))
        {
            let mut parts = at.rsplitn(3, ':');
            let (_col, line_no, file) = (parts.next(), parts.next(), parts.next());
            if let (Some(file), Some(Ok(n))) = (file, line_no.map(str::parse)) {
                path = file.to_owned();
                d.locations.push((path.clone(), n));
            }
            continue;
        }
        let Some((gutter, text)) = line.split_once('|') else {
            continue;
        };
        let text = text.strip_prefix(' ').unwrap_or(text);
        if gutter.trim().parse::<usize>().is_ok() {
            source = text;
        } else if gutter.trim().is_empty() {
            for (col, _) in text
                .match_indices('^')
                .filter(|&(c, _)| c == 0 || !text[..c].ends_with('^'))
            {
                let name: String = source
                    .chars()
                    .skip(col)
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if name.starts_with(|c: char| c.is_alphabetic() || c == '_') {
                    d.carets.push((path.clone(), name));
                }
            }
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "pub mod ema;
pub use ema::{
    Ema, Window,
};
pub fn accuracy(p: &[usize]) -> f64 {
    0.0
}
";

    const EMA: &str = "pub struct Ema {
    pub alpha: f64,
}

impl Ema {
    pub fn new(alpha: f64) -> Self {
        Ema { alpha }
    }

    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    pub(crate) fn reset(&mut self) {}
}
";

    fn metrics() -> Crate {
        let files = [("lib.rs", LIB), ("ema.rs", EMA)]
            .map(|(f, text)| (format!("crates/metrics/src/{f}"), text.to_owned()));
        Crate::privatised("crates/metrics/src", &files)
    }

    /// `(file, 1-based line)` of every line that reads `pub` again.
    fn restored(krate: &Crate) -> Vec<(&str, usize)> {
        let mut out = Vec::new();
        for f in &krate.files {
            let name = f.path.rsplit('/').next().unwrap();
            for &i in f.rewritten.difference(&f.private) {
                assert!(f.lines[i].trim_start().starts_with("pub "));
                out.push((name, i + 1));
            }
        }
        out
    }

    #[test]
    fn item_pubs_are_rewritten_and_fields_are_not() {
        let krate = metrics();
        let lib: Vec<usize> = krate.files[0].rewritten.iter().map(|i| i + 1).collect();
        let ema: Vec<usize> = krate.files[1].rewritten.iter().map(|i| i + 1).collect();
        assert_eq!(lib, [1, 2, 3, 4], "the grouped use is one line per name");
        assert_eq!(ema, [1, 6, 10], "the field and the pub(crate) fn stay");
        assert_eq!(
            krate.files[1].lines[5],
            "    pub(crate) fn new(alpha: f64) -> Self {\n"
        );
        assert_eq!(krate.files[1].lines[1], "    pub alpha: f64,\n");
    }

    #[test]
    fn e0603_restores_the_item_its_note_points_at() {
        let mut krate = metrics();
        assert_eq!(krate.changed().len(), 2, "both files, rewritten");
        let out = "error[E0603]: function `accuracy` is private
  --> crates/core/src/trainer.rs:26:18
   |
26 | use apt_metrics::accuracy;
   |                  ^^^^^^^^ private function
   |
note: the function `accuracy` is defined here
  --> crates/metrics/src/lib.rs:4:1
   |
4  | pub(crate) fn accuracy(p: &[usize]) -> f64 {
   | ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^

error[E0603]: struct `Ema` is private
  --> crates/core/src/gavg.rs:12:18
   |
12 | use apt_metrics::Ema;
   |                  ^^^ private struct
   |
note: the struct import `Ema` is defined here...
  --> crates/metrics/src/lib.rs:2:21
   |
2  | pub(crate) use ema::Ema;
   |                     ^^^

error: could not compile `apt-core` (lib) due to 2 previous errors
";
        assert_eq!(krate.restore(out), 2);
        assert_eq!(restored(&krate), [("lib.rs", 2), ("lib.rs", 4)]);
        assert_eq!(krate.changed().len(), 1, "lib.rs");
        // The same errors again restore nothing next to them.
        assert_eq!(krate.restore(out), 0);
        assert!(krate.changed().is_empty());
    }

    #[test]
    fn e0624_restores_the_method_its_defined_here_span_points_at() {
        let mut krate = metrics();
        let out = "error[E0624]: method `alpha` is private
   --> src/train.rs:853:49
    |
853 |         let a = ema.alpha();
    |                     ^^^^^ private method
    |
   ::: crates/metrics/src/ema.rs:10:5
    |
10  |     pub(crate) fn alpha(&self) -> f64 {
    |     --------------------------------- private method defined here
";
        assert_eq!(krate.restore(out), 1);
        assert_eq!(restored(&krate), [("ema.rs", 10)]);
        // A location off every rewritten line and outside every `use`
        // restores nothing, not the item nearest to it.
        let near = out.replace("ema.rs:10:5", "ema.rs:9:5");
        assert_eq!(metrics().restore(&near), 0);
    }

    #[test]
    fn re_export_errors_restore_the_named_item_and_every_use_of_it() {
        let mut krate = metrics();
        let out =
            "error[E0365]: `ema` is only public within the crate, and cannot be re-exported outside
 --> crates/metrics/src/lib.rs:2:9
  |
2 | pub use ema::Ema;
  |         ^^^ re-export of crate public `ema`
";
        assert_eq!(krate.restore(out), 3, "the module and each use naming it");
        assert_eq!(
            restored(&krate),
            [("lib.rs", 1), ("lib.rs", 2), ("lib.rs", 3)]
        );
        let out = "error[E0364]: `Ema` is private, and cannot be re-exported
 --> crates/metrics/src/lib.rs:2:14
  |
2 | pub use ema::Ema;
  |              ^^^
";
        assert_eq!(krate.restore(out), 1, "the struct; its use reads pub");
        let want = [("lib.rs", 1), ("lib.rs", 2), ("lib.rs", 3), ("ema.rs", 1)];
        assert_eq!(restored(&krate), want);
    }

    #[test]
    fn a_grouped_use_keeps_the_name_no_other_crate_reaches_private() {
        let mut krate = metrics();
        let out = "error[E0603]: struct `Ema` is private
  --> crates/core/src/gavg.rs:12:18
   |
12 | use apt_metrics::Ema;
   |                  ^^^ private struct
   |
note: the struct import `Ema` is defined here...
  --> crates/metrics/src/lib.rs:2:21
   |
2  | pub(crate) use ema::Ema;
   |                     ^^^
note: ...and refers to the struct `Ema` which is defined here
  --> crates/metrics/src/ema.rs:1:1
   |
1  | pub(crate) struct Ema {
   | ^^^^^^^^^^^^^^^^^^^^^
";
        assert_eq!(krate.restore(out), 2);
        let lib = krate.files[0].lines.concat();
        assert!(lib.contains("\npub use ema::Ema;\n"), "{lib}");
        assert!(lib.contains("\npub(crate) use ema::Window;\n"), "{lib}");
    }

    #[test]
    fn groups_split_per_name_unless_nested_or_under_an_attribute() {
        let text = "pub use a::{X, Y as Z};
    pub use b::{
        P,
    };
#[cfg(test)]
pub use c::{Q, R};
pub use d::{e::{S, T}, U};
pub use f::V;
";
        assert_eq!(
            split_grouped_uses(text).concat(),
            "pub use a::X;
pub use a::Y as Z;
    pub use b::P;
#[cfg(test)]
pub use c::{Q, R};
pub use d::{e::{S, T}, U};
pub use f::V;
"
        );
    }

    #[test]
    fn a_private_type_without_a_code_restores_its_definition_and_uses() {
        let mut krate = metrics();
        let out = "error: type `apt_metrics::ema::Ema<f64>` is private
  --> src/main.rs:5:13
   |
5  |     let e = apt_metrics::make();
   |             ^^^^^^^^^^^^^^^^^^^ private type
";
        assert_eq!(krate.restore(out), 2);
        assert_eq!(restored(&krate), [("lib.rs", 2), ("ema.rs", 1)]);
    }

    #[test]
    fn dead_items_come_from_the_carets_of_this_crate_s_dead_code_warnings() {
        let krate = metrics();
        let out = "warning: unused import: `ema::Ema`
 --> crates/metrics/src/lib.rs:2:16
  |
2 | pub(crate) use ema::{
  |                ^^^

warning: function `accuracy` is never used
 --> crates/metrics/src/lib.rs:5:15
  |
5 | pub(crate) fn accuracy(p: &[usize]) -> f64 {
  |               ^^^^^^^^
  |
  = note: `#[warn(dead_code)]` (part of `#[warn(unused)]`) on by default

warning: multiple associated items are never used
   --> crates/metrics/src/ema.rs:10:19
    |
  5 | impl Ema {
    | -------- associated items in this implementation
...
 10 |     pub(crate) fn alpha(&self) -> f64 {
    |                   ^^^^^
...
 14 |     pub(crate) fn reset(&mut self) {}
    |                   ^^^^^

warning: struct `Other` is never constructed
 --> crates/core/src/lib.rs:3:19
  |
3 | pub(crate) struct Other;
  |                   ^^^^^
";
        let want = [
            "crates/metrics/src/ema.rs alpha",
            "crates/metrics/src/ema.rs reset",
            "crates/metrics/src/lib.rs accuracy",
        ];
        assert_eq!(krate.dead(out), want);
    }
}
