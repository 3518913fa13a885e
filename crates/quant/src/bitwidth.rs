use crate::QuantError;
use std::fmt;

/// A validated parameter bitwidth in `[2, 32]` bits.
///
/// Algorithm 1 of the paper clamps layer precision to exactly this range
/// (`k_i > 2` before decrementing, `k_i < 32` before incrementing), so the
/// type makes out-of-range precisions unrepresentable.
///
/// ```
/// use apt_quant::Bitwidth;
/// let k = Bitwidth::new(6)?;
/// assert_eq!(k.get(), 6);
/// assert_eq!(k.num_levels(), 64);
/// assert_eq!(k.increment().get(), 7);
/// # Ok::<(), apt_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bitwidth(u8);

impl Bitwidth {
    /// Smallest supported precision (2 bits), per Algorithm 1.
    pub const MIN: Bitwidth = Bitwidth(2);
    /// The paper's default initial precision for APT runs (§IV: "we set
    /// initial bitwidth to 6").
    pub const PAPER_INITIAL: Bitwidth = Bitwidth(6);

    /// Creates a bitwidth.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBitwidth`] unless `2 ≤ bits ≤ 32`.
    pub fn new(bits: u32) -> crate::Result<Self> {
        if !(2..=32).contains(&bits) {
            return Err(QuantError::InvalidBitwidth { bits });
        }
        Ok(Bitwidth(bits as u8))
    }

    /// The raw bit count.
    pub fn get(self) -> u32 {
        u32::from(self.0)
    }

    /// Number of representable code points, `2^k` (exact up to k = 32).
    pub fn num_levels(self) -> u64 {
        1u64 << self.0
    }

    /// Number of quantisation steps across the range, `2^k − 1` — the
    /// denominator of the paper's Eq. 2.
    pub fn num_steps(self) -> u64 {
        self.num_levels() - 1
    }

    /// One step up, saturating at 32 bits (Alg. 1 line 3).
    pub fn increment(self) -> Bitwidth {
        Bitwidth((self.0 + 1).min(32))
    }

    /// One step down, saturating at [`Bitwidth::MIN`] (Alg. 1 line 6).
    pub fn decrement(self) -> Bitwidth {
        Bitwidth((self.0 - 1).max(2))
    }

    /// `true` at the 32-bit ceiling.
    pub fn is_max(self) -> bool {
        self.0 == 32
    }

    /// `true` at the 2-bit floor.
    pub fn is_min(self) -> bool {
        self.0 == 2
    }
}

impl Default for Bitwidth {
    /// Defaults to the paper's initial APT precision, 6 bits.
    fn default() -> Self {
        Bitwidth::PAPER_INITIAL
    }
}

impl fmt::Display for Bitwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.0)
    }
}

impl TryFrom<u32> for Bitwidth {
    type Error = QuantError;
    fn try_from(bits: u32) -> crate::Result<Self> {
        Bitwidth::new(bits)
    }
}

impl From<Bitwidth> for u32 {
    fn from(b: Bitwidth) -> u32 {
        b.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_supported_range() {
        for bits in 2..=32 {
            assert_eq!(Bitwidth::new(bits).unwrap().get(), bits);
        }
    }

    #[test]
    fn rejects_out_of_range() {
        for bits in [0u32, 1, 33, 64, 1000] {
            assert_eq!(
                Bitwidth::new(bits),
                Err(QuantError::InvalidBitwidth { bits })
            );
        }
    }

    #[test]
    fn levels_and_steps() {
        assert_eq!(Bitwidth::new(2).unwrap().num_levels(), 4);
        assert_eq!(Bitwidth::new(8).unwrap().num_steps(), 255);
        assert_eq!(Bitwidth::new(32).unwrap().num_levels(), 1u64 << 32);
    }

    #[test]
    fn increment_decrement_saturate() {
        let max = Bitwidth::new(32).unwrap();
        assert_eq!(max.increment(), max);
        assert_eq!(Bitwidth::MIN.decrement(), Bitwidth::MIN);
        assert_eq!(Bitwidth::new(6).unwrap().increment().get(), 7);
        assert_eq!(Bitwidth::new(6).unwrap().decrement().get(), 5);
        assert!(max.is_max());
        assert!(Bitwidth::MIN.is_min());
    }

    #[test]
    fn default_is_paper_initial() {
        assert_eq!(Bitwidth::default(), Bitwidth::PAPER_INITIAL);
        assert_eq!(Bitwidth::default().get(), 6);
    }

    #[test]
    fn ordering_and_conversions() {
        assert!(Bitwidth::new(4).unwrap() < Bitwidth::new(8).unwrap());
        assert_eq!(u32::from(Bitwidth::new(5).unwrap()), 5);
        assert!(Bitwidth::try_from(7u32).is_ok());
        assert!(Bitwidth::try_from(1u32).is_err());
        assert_eq!(Bitwidth::new(8).unwrap().to_string(), "8-bit");
    }
}
