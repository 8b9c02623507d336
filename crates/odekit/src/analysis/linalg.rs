//! Small dense linear algebra: matrices, linear solves, determinants and
//! eigenvalues of the (small) Jacobians that protocol analysis produces.
//!
//! The systems in the paper have 2–4 states, so the eigenvalue machinery is
//! optimised for clarity and robustness at small dimension rather than for
//! large-scale performance: characteristic polynomial coefficients via the
//! Faddeev–LeVerrier recursion, roots via Durand–Kerner iteration, plus the
//! closed form for 2×2 matrices.

use crate::error::OdeError;
use crate::Result;
use std::fmt;

/// A complex number (used for eigenvalues).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    pub(crate) fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A purely real complex number.
    pub(crate) fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// The modulus `|z|`.
    pub(crate) fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;

    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;

    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;

    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl std::ops::Div for Complex {
    type Output = Complex;

    fn div(self, o: Complex) -> Complex {
        let d = o.re * o.re + o.im * o.im;
        Complex::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from nested rows.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::Linalg`] if the rows have inconsistent lengths or
    /// the input is empty.
    pub(crate) fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let r = rows.len();
        if r == 0 {
            return Err(OdeError::Linalg("matrix must have at least one row".into()));
        }
        let c = rows[0].len();
        if c == 0 || rows.iter().any(|row| row.len() != c) {
            return Err(OdeError::Linalg(
                "matrix rows have inconsistent lengths".into(),
            ));
        }
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// `true` if the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub(crate) fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub(crate) fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// The trace (sum of diagonal elements).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub(crate) fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self.get(i, i)).sum()
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::Linalg`] if the shapes are incompatible.
    pub(crate) fn multiply(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(OdeError::Linalg(format!(
                "cannot multiply {}x{} by {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out.data[r * out.cols + c] += a * other.get(k, c);
                }
            }
        }
        Ok(out)
    }

    /// Sum `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::Linalg`] if the shapes differ.
    pub(crate) fn add(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(OdeError::Linalg("matrix shapes differ".into()));
        }
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(out)
    }

    /// Scalar multiple.
    pub(crate) fn scaled(&self, factor: f64) -> Matrix {
        let mut out = self.clone();
        for a in &mut out.data {
            *a *= factor;
        }
        out
    }

    /// Determinant via LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::Linalg`] if the matrix is not square.
    pub(crate) fn determinant(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(OdeError::Linalg(
                "determinant requires a square matrix".into(),
            ));
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut det = 1.0;
        for col in 0..n {
            // Pivot.
            let mut pivot = col;
            let mut max = a[col * n + col].abs();
            for r in (col + 1)..n {
                if a[r * n + col].abs() > max {
                    max = a[r * n + col].abs();
                    pivot = r;
                }
            }
            if max == 0.0 {
                return Ok(0.0);
            }
            if pivot != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot * n + c);
                }
                det = -det;
            }
            det *= a[col * n + col];
            for r in (col + 1)..n {
                let f = a[r * n + col] / a[col * n + col];
                for c in col..n {
                    a[r * n + c] -= f * a[col * n + c];
                }
            }
        }
        Ok(det)
    }

    /// Solves `self · x = b` by Gaussian elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::Linalg`] if the matrix is not square, the vector
    /// length does not match, or the matrix is (numerically) singular.
    pub(crate) fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if !self.is_square() {
            return Err(OdeError::Linalg("solve requires a square matrix".into()));
        }
        let n = self.rows;
        if b.len() != n {
            return Err(OdeError::Linalg("right-hand side has wrong length".into()));
        }
        let mut a = self.data.clone();
        let mut rhs = b.to_vec();
        for col in 0..n {
            let mut pivot = col;
            let mut max = a[col * n + col].abs();
            for r in (col + 1)..n {
                if a[r * n + col].abs() > max {
                    max = a[r * n + col].abs();
                    pivot = r;
                }
            }
            if max < 1e-300 {
                return Err(OdeError::Linalg("matrix is singular".into()));
            }
            if pivot != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot * n + c);
                }
                rhs.swap(col, pivot);
            }
            for r in (col + 1)..n {
                let f = a[r * n + col] / a[col * n + col];
                if f == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= f * a[col * n + c];
                }
                rhs[r] -= f * rhs[col];
            }
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for row in (0..n).rev() {
            let mut acc = rhs[row];
            for c in (row + 1)..n {
                acc -= a[row * n + c] * x[c];
            }
            x[row] = acc / a[row * n + row];
        }
        Ok(x)
    }

    /// Coefficients `c_0 + c_1 λ + … + c_n λ^n` of the characteristic
    /// polynomial `det(λI − A)`, computed with the Faddeev–LeVerrier
    /// recursion. `c_n` is always 1.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::Linalg`] if the matrix is not square.
    pub(crate) fn characteristic_polynomial(&self) -> Result<Vec<f64>> {
        if !self.is_square() {
            return Err(OdeError::Linalg(
                "characteristic polynomial requires a square matrix".into(),
            ));
        }
        let n = self.rows;
        // Faddeev–LeVerrier: M_0 = 0, c_n = 1;
        // M_k = A·M_{k-1} + c_{n-k+1} I ;  c_{n-k} = -trace(A·M_k)/k
        let mut coeffs = vec![0.0; n + 1];
        coeffs[n] = 1.0;
        let mut m = Matrix::zeros(n, n);
        for k in 1..=n {
            // M_k = A*M_{k-1} + c_{n-k+1} * I
            let am = self.multiply(&m)?;
            m = am.add(&Matrix::identity(n).scaled(coeffs[n - k + 1]))?;
            let am_next = self.multiply(&m)?;
            coeffs[n - k] = -am_next.trace() / k as f64;
        }
        Ok(coeffs)
    }

    /// All eigenvalues of a square matrix (with multiplicity), as complex
    /// numbers.
    ///
    /// Uses the closed form for 1×1 and 2×2 matrices and Durand–Kerner
    /// iteration on the characteristic polynomial for larger matrices. This is
    /// accurate and robust for the small (≤ ~8×8) Jacobians produced by
    /// protocol analysis.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::Linalg`] if the matrix is not square and
    /// [`OdeError::NoConvergence`] if root finding fails.
    pub(crate) fn eigenvalues(&self) -> Result<Vec<Complex>> {
        if !self.is_square() {
            return Err(OdeError::Linalg(
                "eigenvalues require a square matrix".into(),
            ));
        }
        match self.rows {
            0 => Ok(Vec::new()),
            1 => Ok(vec![Complex::real(self.get(0, 0))]),
            2 => Ok(self.eigenvalues_2x2()),
            _ => {
                let coeffs = self.characteristic_polynomial()?;
                durand_kerner(&coeffs)
            }
        }
    }

    /// Closed-form eigenvalues of a 2×2 matrix via trace and determinant.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not 2×2.
    pub(crate) fn eigenvalues_2x2(&self) -> Vec<Complex> {
        assert!(
            self.rows == 2 && self.cols == 2,
            "eigenvalues_2x2 requires a 2x2 matrix"
        );
        let tau = self.trace();
        let delta = self.get(0, 0) * self.get(1, 1) - self.get(0, 1) * self.get(1, 0);
        let disc = tau * tau - 4.0 * delta;
        if disc >= 0.0 {
            let s = disc.sqrt();
            vec![
                Complex::real((tau + s) / 2.0),
                Complex::real((tau - s) / 2.0),
            ]
        } else {
            let s = (-disc).sqrt();
            vec![
                Complex::new(tau / 2.0, s / 2.0),
                Complex::new(tau / 2.0, -s / 2.0),
            ]
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// Finds all (complex) roots of the polynomial
/// `c_0 + c_1 x + … + c_n x^n` using Durand–Kerner iteration.
///
/// # Errors
///
/// Returns [`OdeError::Linalg`] if the leading coefficient is zero and
/// [`OdeError::NoConvergence`] if the iteration does not converge.
pub(crate) fn durand_kerner(coeffs: &[f64]) -> Result<Vec<Complex>> {
    let n = coeffs.len().saturating_sub(1);
    if n == 0 {
        return Ok(Vec::new());
    }
    let lead = coeffs[n];
    if lead == 0.0 {
        return Err(OdeError::Linalg("leading coefficient is zero".into()));
    }
    // Normalize to a monic polynomial.
    let monic: Vec<f64> = coeffs.iter().map(|c| c / lead).collect();
    let eval = |z: Complex| -> Complex {
        // Horner evaluation from the highest coefficient down.
        let mut acc = Complex::real(monic[n]);
        for k in (0..n).rev() {
            acc = acc * z + Complex::real(monic[k]);
        }
        acc
    };

    // Initial guesses on a circle of radius related to the coefficient bound,
    // using an irrational angle to avoid symmetry traps.
    let radius = 1.0 + monic[..n].iter().map(|c| c.abs()).fold(0.0_f64, f64::max);
    let mut roots: Vec<Complex> = (0..n)
        .map(|k| {
            let angle = 0.4 + 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            Complex::new(radius * 0.5 * angle.cos(), radius * 0.5 * angle.sin())
        })
        .collect();

    let max_iter = 500;
    for _ in 0..max_iter {
        let mut max_delta = 0.0_f64;
        for i in 0..n {
            let mut denom = Complex::real(1.0);
            for j in 0..n {
                if i != j {
                    denom = denom * (roots[i] - roots[j]);
                }
            }
            if denom.abs() < 1e-300 {
                // Perturb coincident estimates slightly.
                roots[i] = roots[i] + Complex::new(1e-8, 1e-8);
                continue;
            }
            let delta = eval(roots[i]) / denom;
            roots[i] = roots[i] - delta;
            max_delta = max_delta.max(delta.abs());
        }
        if max_delta < 1e-13 * radius.max(1.0) {
            // Clean tiny imaginary parts produced by rounding.
            for r in &mut roots {
                if r.im.abs() < 1e-9 * r.abs().max(1.0) {
                    r.im = 0.0;
                }
            }
            return Ok(roots);
        }
    }
    Err(OdeError::NoConvergence {
        context: "Durand-Kerner root finding",
        iterations: max_iter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_re(mut v: Vec<Complex>) -> Vec<Complex> {
        v.sort_by(|a, b| {
            a.re.partial_cmp(&b.re)
                .unwrap()
                .then(a.im.partial_cmp(&b.im).unwrap())
        });
        v
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back.re - a.re).abs() < 1e-12 && (back.im - a.im).abs() < 1e-12);
        assert!(Complex::new(3.0, 4.0).abs() - 5.0 < 1e-12);
        assert!(format!("{}", Complex::new(1.0, -2.0)).contains('i'));
    }

    #[test]
    fn matrix_construction_and_accessors() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.trace(), 5.0);
        assert!(m.is_square());
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(!format!("{m}").is_empty());
    }

    #[test]
    fn multiply_identity_and_vec() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(m.multiply(&i).unwrap(), m);
        assert!(m.multiply(&Matrix::zeros(3, 3)).is_err());
        let s = m.add(&m).unwrap().scaled(0.5);
        assert_eq!(s, m);
    }

    #[test]
    fn determinant_and_solve() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        assert!((m.determinant().unwrap() - 5.0).abs() < 1e-12);
        let x = m.solve(&[3.0, 5.0]).unwrap();
        // 2a + b = 3 ; a + 3b = 5 → a = 4/5, b = 7/5
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);

        let singular = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(singular.determinant().unwrap(), 0.0);
        assert!(singular.solve(&[1.0, 1.0]).is_err());

        // 3x3 with known determinant.
        let m3 = Matrix::from_rows(&[
            vec![6.0, 1.0, 1.0],
            vec![4.0, -2.0, 5.0],
            vec![2.0, 8.0, 7.0],
        ])
        .unwrap();
        assert!((m3.determinant().unwrap() + 306.0).abs() < 1e-9);
    }

    #[test]
    fn characteristic_polynomial_of_2x2() {
        // det(λI - A) = λ² - tr λ + det
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let c = m.characteristic_polynomial().unwrap();
        assert!((c[2] - 1.0).abs() < 1e-12);
        assert!((c[1] + 5.0).abs() < 1e-12);
        assert!((c[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn eigenvalues_2x2_real_and_complex() {
        // Real: diag(1, 4) rotated is symmetric [[2, -1],[-1, 3]] has eigs (5±√5)/2
        let m = Matrix::from_rows(&[vec![2.0, -1.0], vec![-1.0, 3.0]]).unwrap();
        let eig = sorted_re(m.eigenvalues().unwrap());
        assert!((eig[0].re - (5.0 - 5.0_f64.sqrt()) / 2.0).abs() < 1e-10);
        assert!((eig[1].re - (5.0 + 5.0_f64.sqrt()) / 2.0).abs() < 1e-10);

        // Complex: rotation-like matrix [[0, -1], [1, 0]] has eigs ±i
        let r = Matrix::from_rows(&[vec![0.0, -1.0], vec![1.0, 0.0]]).unwrap();
        let eig = r.eigenvalues().unwrap();
        assert!(eig
            .iter()
            .all(|e| e.re.abs() < 1e-12 && (e.im.abs() - 1.0).abs() < 1e-12));
    }

    #[test]
    fn eigenvalues_3x3_real() {
        // Upper triangular: eigenvalues are the diagonal.
        let m = Matrix::from_rows(&[
            vec![1.0, 5.0, -3.0],
            vec![0.0, 2.0, 7.0],
            vec![0.0, 0.0, -4.0],
        ])
        .unwrap();
        let eig = sorted_re(m.eigenvalues().unwrap());
        let expected = [-4.0, 1.0, 2.0];
        for (e, x) in eig.iter().zip(expected) {
            assert!((e.re - x).abs() < 1e-7, "eig {e} vs {x}");
            assert!(e.im.abs() < 1e-7);
        }
    }

    #[test]
    fn eigenvalues_3x3_complex_pair() {
        // Block diag: rotation block (eigs ±2i scaled) + real eigenvalue 3.
        let m = Matrix::from_rows(&[
            vec![0.0, -2.0, 0.0],
            vec![2.0, 0.0, 0.0],
            vec![0.0, 0.0, 3.0],
        ])
        .unwrap();
        let eig = m.eigenvalues().unwrap();
        let mut real_count = 0;
        let mut complex_count = 0;
        for e in &eig {
            if e.im.abs() < 1e-7 {
                real_count += 1;
                assert!((e.re - 3.0).abs() < 1e-6);
            } else {
                complex_count += 1;
                assert!(e.re.abs() < 1e-6);
                assert!((e.im.abs() - 2.0).abs() < 1e-6);
            }
        }
        assert_eq!(real_count, 1);
        assert_eq!(complex_count, 2);
    }

    #[test]
    fn eigenvalues_4x4() {
        // diag(1, 2, 3, 4) permuted by a similarity transform keeps eigenvalues.
        // Use an upper-triangular with those diagonal values.
        let m = Matrix::from_rows(&[
            vec![1.0, 1.0, 0.0, 2.0],
            vec![0.0, 2.0, 5.0, 1.0],
            vec![0.0, 0.0, 3.0, -1.0],
            vec![0.0, 0.0, 0.0, 4.0],
        ])
        .unwrap();
        let eig = sorted_re(m.eigenvalues().unwrap());
        for (e, x) in eig.iter().zip([1.0, 2.0, 3.0, 4.0]) {
            assert!((e.re - x).abs() < 1e-6);
        }
    }

    #[test]
    fn durand_kerner_simple_roots() {
        // (x-1)(x-2)(x-3) = x³ -6x² + 11x - 6
        let roots = sorted_re(durand_kerner(&[-6.0, 11.0, -6.0, 1.0]).unwrap());
        for (r, x) in roots.iter().zip([1.0, 2.0, 3.0]) {
            assert!((r.re - x).abs() < 1e-8);
        }
        assert!(durand_kerner(&[1.0, 0.0]).is_err());
        assert!(durand_kerner(&[5.0]).unwrap().is_empty());
    }
}
