//! Small dense linear algebra: matrices, solvers, least squares.
//!
//! Sized for the workspace's needs — polynomial baselines, Levenberg–
//! Marquardt normal equations, PCA/PLS deflation — i.e. systems of at most
//! a few hundred unknowns. Everything is `f64` and row-major.

use serde::{Deserialize, Serialize};

use crate::SpectrumError;

/// A dense row-major matrix.
///
/// # Example
///
/// ```
/// use spectrum::linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.transpose().get(0, 1), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or there are no rows.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col] = value;
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += aik * other.get(k, j);
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// The Gram matrix `selfᵀ·self`, summed exactly as
    /// `self.transpose().matmul(self)` sums it: entry `(i, j)` adds
    /// `a[r][i] * a[r][j]` over the rows `r` in ascending order, skipping
    /// rows whose left factor `a[r][i]` is zero.
    pub fn gram(&self) -> Matrix {
        let c = self.cols;
        let mut out = Matrix::zeros(c, c);
        for row in self.data.chunks_exact(c.max(1)) {
            for (i, &left) in row.iter().enumerate() {
                if is_zero(left) {
                    continue;
                }
                for (entry, &right) in out.data[i * c..(i + 1) * c].iter_mut().zip(row) {
                    *entry += left * right;
                }
            }
        }
        out
    }

    /// `selfᵀ·v`, each entry summed over the rows in ascending order as
    /// `self.transpose().matvec(v)` sums it.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn transpose_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "transpose_matvec dimension mismatch");
        (0..self.cols)
            .map(|j| {
                (0..self.rows)
                    .map(|r| self.data[r * self.cols + j] * v[r])
                    .sum()
            })
            .collect()
    }
}

/// Solves the square system `a * x = b` by Gaussian elimination with
/// partial pivoting.
///
/// # Errors
///
/// Returns [`SpectrumError::Singular`] if a pivot smaller than `1e-12`
/// (relative to the largest row entry) is encountered, and
/// [`SpectrumError::ShapeMismatch`] if `a` is not square or `b` has the
/// wrong length.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SpectrumError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SpectrumError::ShapeMismatch {
            left: a.rows(),
            right: a.cols(),
        });
    }
    if b.len() != n {
        return Err(SpectrumError::ShapeMismatch {
            left: n,
            right: b.len(),
        });
    }
    // Augmented working copy.
    let mut m = a.clone();
    let mut rhs = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, m.get(r, col).abs()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((col, 0.0));
        if pivot_val < 1e-12 {
            return Err(SpectrumError::Singular);
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = m.get(col, c);
                m.set(col, c, m.get(pivot_row, c));
                m.set(pivot_row, c, tmp);
            }
            rhs.swap(col, pivot_row);
        }
        let pivot = m.get(col, col);
        for r in (col + 1)..n {
            let factor = m.get(r, col) / pivot;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                let v = m.get(r, c) - factor * m.get(col, c);
                m.set(r, c, v);
            }
            rhs[r] -= factor * rhs[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for (c, &xc) in x.iter().enumerate().take(n).skip(row + 1) {
            acc -= m.get(row, c) * xc;
        }
        x[row] = acc / m.get(row, row);
    }
    Ok(x)
}

/// Solves the (possibly overdetermined) least-squares problem
/// `min ||a x - b||²` via the normal equations with Tikhonov damping
/// `lambda` (use `0.0` for plain least squares).
///
/// # Errors
///
/// Returns [`SpectrumError::Singular`] if the damped normal matrix is
/// singular, and [`SpectrumError::ShapeMismatch`] on dimension mismatch.
pub fn lstsq(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>, SpectrumError> {
    if b.len() != a.rows() {
        return Err(SpectrumError::ShapeMismatch {
            left: a.rows(),
            right: b.len(),
        });
    }
    let mut ata = a.gram();
    for i in 0..ata.rows() {
        let v = ata.get(i, i) + lambda;
        ata.set(i, i, v);
    }
    solve(&ata, &a.transpose_matvec(b))
}

/// `true` for `+0.0` and `-0.0`: the exact-zero skip of [`Matrix::gram`].
fn is_zero(x: f64) -> bool {
    x.to_bits() << 1 == 0
}

/// Ridge added to the diagonal of every active-set solve in [`nnls`].
const NNLS_RIDGE: f64 = 1e-10;

/// Solves the non-negative least squares problem `min ||a x - b||²`
/// subject to `x >= 0` with a simple active-set projection iteration.
/// Used when fitting concentrations, which are physically non-negative.
///
/// The normal equations `G = aᵀa`, `aᵀb` are formed once. Each active-set
/// iteration solves `(G_F + 1e-10·I) x_F = (aᵀb)_F` over the free columns
/// `F`: the Gram of a column subset is the sub-matrix of the full Gram, so
/// this is the system damped least squares over those columns would form.
///
/// # Errors
///
/// Returns [`SpectrumError::ShapeMismatch`] if `b.len() != a.rows()`, and
/// propagates [`SpectrumError`] from the inner unconstrained solves.
pub fn nnls(a: &Matrix, b: &[f64], iterations: usize) -> Result<Vec<f64>, SpectrumError> {
    if b.len() != a.rows() {
        return Err(SpectrumError::ShapeMismatch {
            left: a.rows(),
            right: b.len(),
        });
    }
    let gram = a.gram();
    let atb = a.transpose_matvec(b);
    let n = a.cols();
    let mut active: Vec<bool> = vec![true; n]; // true = free to vary
    let mut x = vec![0.0; n];
    for _ in 0..iterations.max(1) {
        // Build a reduced system over the free variables.
        let free: Vec<usize> = (0..n).filter(|&i| active[i]).collect();
        if free.is_empty() {
            return Ok(vec![0.0; n]);
        }
        let k = free.len();
        let mut reduced = Matrix::zeros(k, k);
        for (p, &i) in free.iter().enumerate() {
            for (q, &j) in free.iter().enumerate() {
                reduced.data[p * k + q] = gram.get(i, j);
            }
            reduced.data[p * k + p] += NNLS_RIDGE;
        }
        let rhs: Vec<f64> = free.iter().map(|&i| atb[i]).collect();
        let sol = solve(&reduced, &rhs)?;
        let mut any_negative = false;
        x = vec![0.0; n];
        for (j, &col) in free.iter().enumerate() {
            if sol[j] < 0.0 {
                active[col] = false;
                any_negative = true;
            } else {
                x[col] = sol[j];
            }
        }
        if !any_negative {
            break;
        }
    }
    Ok(x)
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solves_trivially() {
        let eye = Matrix::identity(3);
        let x = solve(&eye, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(solve(&a, &[1.0, 2.0]), Err(SpectrumError::Singular));
    }

    #[test]
    fn non_square_solve_fails() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            solve(&a, &[0.0, 0.0]),
            Err(SpectrumError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn lstsq_recovers_line_fit() {
        // y = 2x + 1 sampled at x = 0..4 with design [1, x].
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![1.0, x]).collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&row_refs);
        let b: Vec<f64> = xs.iter().map(|&x| 2.0 * x + 1.0).collect();
        let coef = lstsq(&a, &b, 0.0).unwrap();
        assert!((coef[0] - 1.0).abs() < 1e-10);
        assert!((coef[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn lstsq_overdetermined_noisy() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 / 10.0).collect();
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![1.0, x]).collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&row_refs);
        // Deterministic "noise" so the test is stable.
        let b: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 3.0 * x - 0.5 + 0.01 * ((i % 3) as f64 - 1.0))
            .collect();
        let coef = lstsq(&a, &b, 0.0).unwrap();
        assert!((coef[1] - 3.0).abs() < 0.01);
        assert!((coef[0] + 0.5).abs() < 0.02);
    }

    #[test]
    fn nnls_clamps_negative_solution() {
        // Unconstrained solution has a negative coefficient.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let b = [1.0, 1.5, -0.5];
        let x = nnls(&a, &b, 10).unwrap();
        assert!(x.iter().all(|&v| v >= 0.0));
        // Second coefficient should be pinned at zero.
        assert_eq!(x[1], 0.0);
        assert!(x[0] > 1.0);
    }

    #[test]
    fn nnls_matches_lstsq_when_positive() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let b = [2.0, 3.0, 5.0];
        let x = nnls(&a, &b, 10).unwrap();
        let y = lstsq(&a, &b, 1e-10).unwrap();
        assert!((x[0] - y[0]).abs() < 1e-6);
        assert!((x[1] - y[1]).abs() < 1e-6);
    }

    /// `lstsq` before the Gram core: transpose, `matmul`, `matvec`.
    fn textbook_lstsq(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>, SpectrumError> {
        let at = a.transpose();
        let mut ata = at.matmul(a);
        for i in 0..ata.rows() {
            let v = ata.get(i, i) + lambda;
            ata.set(i, i, v);
        }
        let atb = at.matvec(b);
        solve(&ata, &atb)
    }

    /// `nnls` before the Gram core: one damped `lstsq` over the copied
    /// free columns per active-set iteration.
    fn textbook_nnls(a: &Matrix, b: &[f64], iterations: usize) -> Result<Vec<f64>, SpectrumError> {
        let n = a.cols();
        let mut active: Vec<bool> = vec![true; n];
        let mut x = vec![0.0; n];
        for _ in 0..iterations.max(1) {
            let free: Vec<usize> = (0..n).filter(|&i| active[i]).collect();
            if free.is_empty() {
                return Ok(vec![0.0; n]);
            }
            let mut reduced = Matrix::zeros(a.rows(), free.len());
            for r in 0..a.rows() {
                for (j, &col) in free.iter().enumerate() {
                    reduced.set(r, j, a.get(r, col));
                }
            }
            let sol = textbook_lstsq(&reduced, b, 1e-10)?;
            let mut any_negative = false;
            x = vec![0.0; n];
            for (j, &col) in free.iter().enumerate() {
                if sol[j] < 0.0 {
                    active[col] = false;
                    any_negative = true;
                } else {
                    x[col] = sol[j];
                }
            }
            if !any_negative {
                break;
            }
        }
        Ok(x)
    }

    fn assert_bits_eq(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what} length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs textbook {w}");
        }
    }

    #[test]
    fn gram_solvers_are_bit_identical_to_textbook() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        // A third of the entries are exact zeros (±0.0) so the skip path
        // runs; columns with a non-positive share drive NNLS to pin
        // variables and re-solve over subsets.
        for (rows, cols) in [
            (1, 1),
            (3, 2),
            (7, 3),
            (40, 4),
            (200, 4),
            (65, 7),
            (1700, 4),
        ] {
            for trial in 0..6 {
                let data: Vec<f64> = (0..rows * cols)
                    .map(|_| match rng.gen_range(0..6) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => rng.gen_range(-1.0..0.2),
                        _ => rng.gen_range(0.0..3.0),
                    })
                    .collect();
                let a = Matrix::from_vec(rows, cols, data);
                let b: Vec<f64> = (0..rows).map(|_| rng.gen_range(-0.5..2.0)).collect();
                let ctx = format!("{rows}x{cols} trial {trial}");
                assert_bits_eq(
                    &format!("{ctx} gram"),
                    a.gram().as_slice(),
                    a.transpose().matmul(&a).as_slice(),
                );
                assert_bits_eq(
                    &format!("{ctx} transpose_matvec"),
                    &a.transpose_matvec(&b),
                    &a.transpose().matvec(&b),
                );
                for lambda in [0.0, 1e-10, 0.3] {
                    match (lstsq(&a, &b, lambda), textbook_lstsq(&a, &b, lambda)) {
                        (Ok(got), Ok(want)) => assert_bits_eq(&format!("{ctx} lstsq"), &got, &want),
                        (got, want) => assert_eq!(got, want, "{ctx} lstsq"),
                    }
                }
                for iterations in [1, 3, 8] {
                    match (nnls(&a, &b, iterations), textbook_nnls(&a, &b, iterations)) {
                        (Ok(got), Ok(want)) => assert_bits_eq(&format!("{ctx} nnls"), &got, &want),
                        (got, want) => assert_eq!(got, want, "{ctx} nnls"),
                    }
                }
            }
        }
    }

    #[test]
    fn gram_skips_zero_left_factors_like_matmul() {
        // `0 · ∞` is NaN, so only the skip keeps these entries finite.
        let inf = f64::INFINITY;
        let a = Matrix::from_rows(&[&[0.0, inf, 1.0], &[2.0, -0.0, -inf], &[1.5, 3.0, 0.0]]);
        let want = a.transpose().matmul(&a);
        assert_bits_eq("gram", a.gram().as_slice(), want.as_slice());
    }

    #[test]
    fn nnls_rejects_mismatched_shapes() {
        let a = Matrix::zeros(3, 2);
        assert!(matches!(
            nnls(&a, &[1.0, 2.0], 4),
            Err(SpectrumError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
        assert_eq!(a.transpose().row(0), &[1.0, 3.0]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }
}
