use std::fmt;
use std::str::FromStr;

use crate::Matrix2;

/// One of the three non-identity Pauli operators used as error operators in
/// the noisy simulation (paper §III.B, Equation 1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pauli {
    /// Bit flip.
    X,
    /// Bit-and-phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// All three operators in canonical (sort) order.
    pub const ALL: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

    /// The dense matrix of this operator.
    pub fn matrix(self) -> Matrix2 {
        match self {
            Pauli::X => Matrix2::x(),
            Pauli::Y => Matrix2::y(),
            Pauli::Z => Matrix2::z(),
        }
    }

    /// Stable small integer code used for canonical trial ordering.
    pub fn code(self) -> u8 {
        match self {
            Pauli::X => 0,
            Pauli::Y => 1,
            Pauli::Z => 2,
        }
    }

    /// Inverse of [`Pauli::code`].
    ///
    /// # Panics
    ///
    /// Panics if `code > 2`.
    pub fn from_code(code: u8) -> Pauli {
        match code {
            0 => Pauli::X,
            1 => Pauli::Y,
            2 => Pauli::Z,
            _ => panic!("invalid Pauli code {code}"),
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pauli::X => write!(f, "X"),
            Pauli::Y => write!(f, "Y"),
            Pauli::Z => write!(f, "Z"),
        }
    }
}

/// Error returned when parsing a [`Pauli`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePauliError(pub(crate) String);

impl fmt::Display for ParsePauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid Pauli operator {:?}, expected X, Y, or Z", self.0)
    }
}

impl std::error::Error for ParsePauliError {}

impl FromStr for Pauli {
    type Err = ParsePauliError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "X" | "x" => Ok(Pauli::X),
            "Y" | "y" => Ok(Pauli::Y),
            "Z" | "z" => Ok(Pauli::Z),
            other => Err(ParsePauliError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TOL;

    #[test]
    fn codes_roundtrip() {
        for p in Pauli::ALL {
            assert_eq!(Pauli::from_code(p.code()), p);
        }
    }

    #[test]
    #[should_panic(expected = "invalid Pauli code")]
    fn from_code_rejects_out_of_range() {
        let _ = Pauli::from_code(3);
    }

    #[test]
    fn parse_roundtrip_and_rejects_garbage() {
        for p in Pauli::ALL {
            assert_eq!(p.to_string().parse::<Pauli>().unwrap(), p);
        }
        assert!("W".parse::<Pauli>().is_err());
        let err = "I".parse::<Pauli>().unwrap_err();
        assert!(err.to_string().contains("expected X, Y, or Z"));
    }

    #[test]
    fn matrices_are_involutive() {
        for p in Pauli::ALL {
            let m = p.matrix();
            assert!((m * m).approx_eq(&Matrix2::identity(), TOL));
        }
    }

    #[test]
    fn ordering_is_x_y_z() {
        assert!(Pauli::X < Pauli::Y && Pauli::Y < Pauli::Z);
    }
}
