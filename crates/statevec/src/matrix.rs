use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;
use std::ops::Mul;

use crate::C64;

fn c(re: f64, im: f64) -> C64 {
    C64::new(re, im)
}

/// A dense 2×2 complex matrix (one-qubit operator), row major.
///
/// ```
/// use qsim_statevec::Matrix2;
/// let h = Matrix2::h();
/// assert!((h * h).approx_eq(&Matrix2::identity(), 1e-12));
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Matrix2(pub [[C64; 2]; 2]);

impl Matrix2 {
    /// Identity operator.
    pub fn identity() -> Self {
        Matrix2([[c(1.0, 0.0), c(0.0, 0.0)], [c(0.0, 0.0), c(1.0, 0.0)]])
    }

    /// Pauli X.
    pub fn x() -> Self {
        Matrix2([[c(0.0, 0.0), c(1.0, 0.0)], [c(1.0, 0.0), c(0.0, 0.0)]])
    }

    /// Pauli Y.
    pub fn y() -> Self {
        Matrix2([[c(0.0, 0.0), c(0.0, -1.0)], [c(0.0, 1.0), c(0.0, 0.0)]])
    }

    /// Pauli Z.
    pub fn z() -> Self {
        Matrix2([[c(1.0, 0.0), c(0.0, 0.0)], [c(0.0, 0.0), c(-1.0, 0.0)]])
    }

    /// Hadamard.
    pub fn h() -> Self {
        let s = FRAC_1_SQRT_2;
        Matrix2([[c(s, 0.0), c(s, 0.0)], [c(s, 0.0), c(-s, 0.0)]])
    }

    /// Phase gate S = diag(1, i).
    pub fn s() -> Self {
        Matrix2([[c(1.0, 0.0), c(0.0, 0.0)], [c(0.0, 0.0), c(0.0, 1.0)]])
    }

    /// S† = diag(1, −i).
    pub fn sdg() -> Self {
        Matrix2([[c(1.0, 0.0), c(0.0, 0.0)], [c(0.0, 0.0), c(0.0, -1.0)]])
    }

    /// T = diag(1, e^{iπ/4}).
    pub fn t() -> Self {
        Matrix2::phase(std::f64::consts::FRAC_PI_4)
    }

    /// T† = diag(1, e^{−iπ/4}).
    pub fn tdg() -> Self {
        Matrix2::phase(-std::f64::consts::FRAC_PI_4)
    }

    /// Phase gate diag(1, e^{iλ}).
    pub fn phase(lambda: f64) -> Self {
        Matrix2([[c(1.0, 0.0), c(0.0, 0.0)], [c(0.0, 0.0), C64::from_polar(1.0, lambda)]])
    }

    /// Rotation about X: e^{−iθX/2}.
    pub fn rx(theta: f64) -> Self {
        let (s, co) = (theta / 2.0).sin_cos();
        Matrix2([[c(co, 0.0), c(0.0, -s)], [c(0.0, -s), c(co, 0.0)]])
    }

    /// Rotation about Y: e^{−iθY/2}.
    pub fn ry(theta: f64) -> Self {
        let (s, co) = (theta / 2.0).sin_cos();
        Matrix2([[c(co, 0.0), c(-s, 0.0)], [c(s, 0.0), c(co, 0.0)]])
    }

    /// Rotation about Z: e^{−iθZ/2} = diag(e^{−iθ/2}, e^{iθ/2}).
    pub fn rz(theta: f64) -> Self {
        Matrix2([
            [C64::from_polar(1.0, -theta / 2.0), c(0.0, 0.0)],
            [c(0.0, 0.0), C64::from_polar(1.0, theta / 2.0)],
        ])
    }

    /// The general single-qubit gate `U(θ, φ, λ)` in the OpenQASM convention:
    ///
    /// ```text
    /// U = [[cos(θ/2),            −e^{iλ} sin(θ/2)],
    ///      [e^{iφ} sin(θ/2),  e^{i(φ+λ)} cos(θ/2)]]
    /// ```
    pub fn u(theta: f64, phi: f64, lambda: f64) -> Self {
        let (s, co) = (theta / 2.0).sin_cos();
        Matrix2([
            [c(co, 0.0), -C64::from_polar(s, lambda)],
            [C64::from_polar(s, phi), C64::from_polar(co, phi + lambda)],
        ])
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Self {
        let m = &self.0;
        Matrix2([[m[0][0].conj(), m[1][0].conj()], [m[0][1].conj(), m[1][1].conj()]])
    }

    /// `true` if `self · self† ≈ I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        (*self * self.adjoint()).approx_eq(&Matrix2::identity(), tol)
    }

    /// Element-wise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Matrix2, tol: f64) -> bool {
        self.0.iter().flatten().zip(other.0.iter().flatten()).all(|(a, b)| (a - b).norm() <= tol)
    }

    /// Approximate equality up to a global phase factor.
    ///
    /// Two unitaries that differ only by `e^{iγ}` act identically on quantum
    /// states, so circuit-identity tests use this comparison.
    pub fn approx_eq_up_to_phase(&self, other: &Matrix2, tol: f64) -> bool {
        // Find the largest-magnitude entry of `other` to fix the phase.
        let mut best = (0usize, 0usize);
        let mut best_norm = 0.0;
        for (i, row) in other.0.iter().enumerate() {
            for (j, e) in row.iter().enumerate() {
                if e.norm() > best_norm {
                    best_norm = e.norm();
                    best = (i, j);
                }
            }
        }
        if best_norm <= tol {
            return self.approx_eq(other, tol);
        }
        let ratio = self.0[best.0][best.1] / other.0[best.0][best.1];
        if (ratio.norm() - 1.0).abs() > tol {
            return false;
        }
        let scaled = Matrix2([
            [other.0[0][0] * ratio, other.0[0][1] * ratio],
            [other.0[1][0] * ratio, other.0[1][1] * ratio],
        ]);
        self.approx_eq(&scaled, tol)
    }

    /// Decompose this unitary as `e^{iα} Rz(φ) Ry(θ) Rz(λ)` and return
    /// `(θ, φ, λ)` such that [`Matrix2::u`]`(θ, φ, λ)` equals `self` up to a
    /// global phase.
    ///
    /// Used by the transpiler's single-qubit fusion pass to re-synthesise a
    /// run of merged rotations as one hardware `U` gate.
    pub fn zyz_angles(&self) -> (f64, f64, f64) {
        let m = &self.0;
        // Strip global phase: make det = 1 (SU(2)).
        let det = m[0][0] * m[1][1] - m[0][1] * m[1][0];
        let phase = det.arg() / 2.0;
        let inv = C64::from_polar(1.0, -phase);
        let a = m[0][0] * inv;
        let b = m[0][1] * inv;
        let cc = m[1][0] * inv;
        let d = m[1][1] * inv;
        // SU(2): [[cos(θ/2) e^{−i(φ+λ)/2}, −sin(θ/2) e^{−i(φ−λ)/2}],
        //         [sin(θ/2) e^{ i(φ−λ)/2},  cos(θ/2) e^{ i(φ+λ)/2}]]
        // atan2(|sin|, |cos|) is well-conditioned at θ ≈ 0 and θ ≈ π, where
        // acos(|cos|) would amplify round-off by ~1/√ε (enough to perturb
        // measured distributions above test tolerances).
        let theta = 2.0 * cc.norm().atan2(a.norm());
        let (phi, lambda) = if a.norm() > 1e-12 && cc.norm() > 1e-12 {
            let sum = 2.0 * d.arg(); // φ + λ
            let diff = 2.0 * cc.arg(); // φ − λ
            ((sum + diff) / 2.0, (sum - diff) / 2.0)
        } else if a.norm() <= 1e-12 {
            // θ = π: only φ − λ matters.
            (2.0 * cc.arg(), 0.0)
        } else {
            // θ = 0: only φ + λ matters.
            (2.0 * d.arg(), 0.0)
        };
        let _ = b;
        (theta, phi, lambda)
    }
}

impl Default for Matrix2 {
    fn default() -> Self {
        Matrix2::identity()
    }
}

impl Mul for Matrix2 {
    type Output = Matrix2;

    fn mul(self, rhs: Matrix2) -> Matrix2 {
        let mut out = [[c(0.0, 0.0); 2]; 2];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, e) in row.iter_mut().enumerate() {
                *e = self.0[i][0] * rhs.0[0][j] + self.0[i][1] * rhs.0[1][j];
            }
        }
        Matrix2(out)
    }
}

impl fmt::Display for Matrix2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.0 {
            writeln!(
                f,
                "[{:.4}{:+.4}i, {:.4}{:+.4}i]",
                row[0].re, row[0].im, row[1].re, row[1].im
            )?;
        }
        Ok(())
    }
}

/// A dense 4×4 complex matrix (two-qubit operator), row major.
///
/// Local basis ordering: index `2·bit(high) + bit(low)` where `(low, high)`
/// are the qubit operands of [`crate::StateVector::apply_2q`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Matrix4(pub [[C64; 4]; 4]);

impl Matrix4 {
    /// Identity operator.
    pub fn identity() -> Self {
        let mut m = [[c(0.0, 0.0); 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = c(1.0, 0.0);
        }
        Matrix4(m)
    }

    /// CNOT with the control on the **high** local bit and target on the low
    /// local bit: `|c t⟩ → |c, t⊕c⟩`.
    pub fn cx() -> Self {
        Matrix4::controlled(&Matrix2::x())
    }

    /// Controlled-Z (symmetric in its operands).
    pub fn cz() -> Self {
        Matrix4::controlled(&Matrix2::z())
    }

    /// SWAP.
    pub fn swap() -> Self {
        let mut m = [[c(0.0, 0.0); 4]; 4];
        m[0][0] = c(1.0, 0.0);
        m[1][2] = c(1.0, 0.0);
        m[2][1] = c(1.0, 0.0);
        m[3][3] = c(1.0, 0.0);
        Matrix4(m)
    }

    /// Controlled-phase `diag(1, 1, 1, e^{iλ})` (symmetric in its operands).
    pub fn cphase(lambda: f64) -> Self {
        let mut m = Matrix4::identity();
        m.0[3][3] = C64::from_polar(1.0, lambda);
        m
    }

    /// Build the controlled version of a one-qubit gate, control on the
    /// **high** local bit.
    pub fn controlled(u: &Matrix2) -> Self {
        let mut m = Matrix4::identity().0;
        m[2][2] = u.0[0][0];
        m[2][3] = u.0[0][1];
        m[3][2] = u.0[1][0];
        m[3][3] = u.0[1][1];
        Matrix4(m)
    }

    /// Kronecker product `high ⊗ low`, matching the local basis ordering.
    pub fn kron(high: &Matrix2, low: &Matrix2) -> Self {
        let mut m = [[c(0.0, 0.0); 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, entry) in row.iter_mut().enumerate() {
                *entry = high.0[i >> 1][j >> 1] * low.0[i & 1][j & 1];
            }
        }
        Matrix4(m)
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Self {
        let mut m = [[c(0.0, 0.0); 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, e) in row.iter_mut().enumerate() {
                *e = self.0[j][i].conj();
            }
        }
        Matrix4(m)
    }

    /// `true` if `self · self† ≈ I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        (*self * self.adjoint()).approx_eq(&Matrix4::identity(), tol)
    }

    /// Element-wise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Matrix4, tol: f64) -> bool {
        self.0.iter().flatten().zip(other.0.iter().flatten()).all(|(a, b)| (a - b).norm() <= tol)
    }

    /// Exchange the roles of the low and high local bits (conjugation by
    /// SWAP). `apply_2q(m, a, b)` equals `apply_2q(m.swapped_operands(), b, a)`.
    pub fn swapped_operands(&self) -> Self {
        let perm = [0usize, 2, 1, 3];
        let mut m = [[c(0.0, 0.0); 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, e) in row.iter_mut().enumerate() {
                *e = self.0[perm[i]][perm[j]];
            }
        }
        Matrix4(m)
    }
}

impl Default for Matrix4 {
    fn default() -> Self {
        Matrix4::identity()
    }
}

impl Mul for Matrix4 {
    type Output = Matrix4;

    fn mul(self, rhs: Matrix4) -> Matrix4 {
        let mut out = [[c(0.0, 0.0); 4]; 4];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, e) in row.iter_mut().enumerate() {
                *e = (0..4).map(|k| self.0[i][k] * rhs.0[k][j]).sum();
            }
        }
        Matrix4(out)
    }
}

impl fmt::Display for Matrix4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.0 {
            write!(f, "[")?;
            for (j, e) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}{:+.4}i", e.re, e.im)?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TOL;
    use std::f64::consts::PI;

    #[test]
    fn standard_1q_gates_are_unitary() {
        for m in [
            Matrix2::identity(),
            Matrix2::x(),
            Matrix2::y(),
            Matrix2::z(),
            Matrix2::h(),
            Matrix2::s(),
            Matrix2::sdg(),
            Matrix2::t(),
            Matrix2::tdg(),
            Matrix2::phase(0.37),
            Matrix2::rx(1.1),
            Matrix2::ry(-2.3),
            Matrix2::rz(0.9),
            Matrix2::u(0.4, 1.2, -0.7),
        ] {
            assert!(m.is_unitary(TOL), "not unitary: {m}");
        }
    }

    #[test]
    fn standard_2q_gates_are_unitary() {
        for m in [
            Matrix4::identity(),
            Matrix4::cx(),
            Matrix4::cz(),
            Matrix4::swap(),
            Matrix4::cphase(0.7),
        ] {
            assert!(m.is_unitary(TOL), "not unitary: {m}");
        }
    }

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (Matrix2::x(), Matrix2::y(), Matrix2::z());
        assert!((x * x).approx_eq(&Matrix2::identity(), TOL));
        assert!((y * y).approx_eq(&Matrix2::identity(), TOL));
        assert!((z * z).approx_eq(&Matrix2::identity(), TOL));
        // XY = iZ
        let xy = x * y;
        let iz = Matrix2([
            [z.0[0][0] * C64::i(), z.0[0][1] * C64::i()],
            [z.0[1][0] * C64::i(), z.0[1][1] * C64::i()],
        ]);
        assert!(xy.approx_eq(&iz, TOL));
    }

    #[test]
    fn hadamard_conjugates_x_to_z() {
        let hxh = Matrix2::h() * Matrix2::x() * Matrix2::h();
        assert!(hxh.approx_eq(&Matrix2::z(), TOL));
    }

    #[test]
    fn u_gate_specialisations() {
        assert!(Matrix2::u(PI / 2.0, 0.0, PI).approx_eq(&Matrix2::h(), TOL));
        assert!(Matrix2::u(PI, 0.0, PI).approx_eq(&Matrix2::x(), TOL));
        assert!(Matrix2::u(0.0, 0.0, 0.73).approx_eq(&Matrix2::phase(0.73), TOL));
    }

    #[test]
    fn rz_is_phase_up_to_global_phase() {
        let rz = Matrix2::rz(0.81);
        let p = Matrix2::phase(0.81);
        assert!(rz.approx_eq_up_to_phase(&p, TOL));
        assert!(!rz.approx_eq(&p, TOL));
    }

    #[test]
    fn zyz_roundtrip_reconstructs_up_to_phase() {
        let cases = [
            Matrix2::h(),
            Matrix2::x(),
            Matrix2::t(),
            Matrix2::rx(0.7),
            Matrix2::ry(2.1),
            Matrix2::rz(-1.3),
            Matrix2::u(0.3, 1.9, -2.5),
            Matrix2::u(PI, 0.2, 0.4),
            Matrix2::identity(),
        ];
        for m in cases {
            let (theta, phi, lambda) = m.zyz_angles();
            let rebuilt = Matrix2::u(theta, phi, lambda);
            assert!(
                rebuilt.approx_eq_up_to_phase(&m, 1e-9),
                "roundtrip failed for {m}: got {rebuilt}"
            );
        }
    }

    #[test]
    fn controlled_places_control_on_high_bit() {
        let cx = Matrix4::cx();
        // |10⟩ (high=1 control set, low=0) → |11⟩
        assert_eq!(cx.0[3][2], C64::new(1.0, 0.0));
        assert_eq!(cx.0[2][3], C64::new(1.0, 0.0));
        // |01⟩ (control clear) unchanged
        assert_eq!(cx.0[1][1], C64::new(1.0, 0.0));
    }

    #[test]
    fn kron_matches_manual_entries() {
        let m = Matrix4::kron(&Matrix2::z(), &Matrix2::x());
        // (Z ⊗ X)|00⟩ = |01⟩
        assert_eq!(m.0[1][0], C64::new(1.0, 0.0));
        // (Z ⊗ X)|10⟩ = −|11⟩
        assert_eq!(m.0[3][2], C64::new(-1.0, 0.0));
    }

    #[test]
    fn swapped_operands_is_involutive_and_fixes_symmetric_gates() {
        assert!(Matrix4::cz().swapped_operands().approx_eq(&Matrix4::cz(), TOL));
        assert!(Matrix4::swap().swapped_operands().approx_eq(&Matrix4::swap(), TOL));
        let cx = Matrix4::cx();
        assert!(cx.swapped_operands().swapped_operands().approx_eq(&cx, TOL));
        assert!(!cx.swapped_operands().approx_eq(&cx, TOL));
    }

    #[test]
    fn cx_decomposes_cz_with_hadamards() {
        // CZ = (I ⊗ H) CX (I ⊗ H) with target on the low bit.
        let h_low = Matrix4::kron(&Matrix2::identity(), &Matrix2::h());
        let composed = h_low * Matrix4::cx() * h_low;
        assert!(composed.approx_eq(&Matrix4::cz(), TOL));
    }

    #[test]
    fn swap_is_three_cnots() {
        let ab = Matrix4::cx();
        let ba = Matrix4::cx().swapped_operands();
        let composed = ab * ba * ab;
        assert!(composed.approx_eq(&Matrix4::swap(), TOL));
    }
}
