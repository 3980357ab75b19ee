//! Dense row-major matrices and vectors over `f64`.
//!
//! The circuits AWE targets (interconnect stages) produce small-to-medium
//! dense systems after modified nodal analysis, and the moment-matching step
//! itself works on tiny `q×q` systems (paper eq. (24), with `q` rarely above
//! 8). A straightforward, well-tested dense representation is therefore the
//! right substrate; sparsity is exploited structurally (tree walks in
//! `awe-treelink`) rather than through a sparse matrix type.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::error::NumericError;

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// # Examples
///
/// ```
/// use awe_numeric::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(&a * &b, a);
/// assert_eq!(a[(1, 0)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Reshapes this matrix to `rows × cols` and zeroes every entry,
    /// reusing the existing allocation when it is large enough. The
    /// in-place twin of [`Matrix::zeros`] for buffers that are rebuilt
    /// per net (MNA restamping in the batch tape replay).
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrites this matrix with a copy of `src`, reusing the existing
    /// allocation when it is large enough (unlike `clone`, which always
    /// allocates fresh storage).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// ```
    /// use awe_numeric::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds an `n × n` matrix by evaluating `f(i, j)` at every entry.
    ///
    /// ```
    /// use awe_numeric::Matrix;
    /// let h = Matrix::from_fn(3, 3, |i, j| 1.0 / (i + j + 1) as f64); // Hilbert
    /// assert_eq!(h[(2, 2)], 0.2);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A column copied out as a `Vec`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index out of bounds");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix–vector product `A·x` into a caller-owned buffer (cleared and
    /// resized in place; no allocation once the buffer is at capacity).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut Vec<f64>) {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        y.clear();
        y.resize(self.rows, 0.0);
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
    }

    /// Transposed matrix–vector product `Aᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn mul_vec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.rows,
            "dimension mismatch in mul_vec_transposed"
        );
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            let row = self.row(i);
            for (yj, a) in y.iter_mut().zip(row) {
                *yj += a * x[i];
            }
        }
        y
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Induced 1-norm (maximum absolute column sum).
    pub fn norm_one(&self) -> f64 {
        (0..self.cols)
            .map(|j| (0..self.rows).map(|i| self[(i, j)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Induced ∞-norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::NotSquare`] for non-square matrices.
    pub fn trace(&self) -> Result<f64, NumericError> {
        if !self.is_square() {
            return Err(NumericError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Scales every entry in place.
    pub fn scale_in_place(&mut self, k: f64) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, k: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_in_place(k);
        m
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Extracts the square submatrix with the given row/column index set.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(row_idx.len(), col_idx.len());
        for (i, &ri) in row_idx.iter().enumerate() {
            for (j, &cj) in col_idx.iter().enumerate() {
                m[(i, j)] = self[(ri, cj)];
            }
        }
        m
    }

    /// `true` if `self` and `other` agree entrywise within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.5e}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj loop order: stream through rhs rows for cache friendliness.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, r) in orow.iter_mut().zip(rrow) {
                    *o += aik * r;
                }
            }
        }
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, k: f64) -> Matrix {
        self.scaled(k)
    }
}

/// Vector helpers used throughout the workspace.
pub mod vecops {
    /// Euclidean norm.
    pub fn norm2(v: &[f64]) -> f64 {
        v.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// ∞-norm.
    pub fn norm_inf(v: &[f64]) -> f64 {
        v.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Dot product.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// `y ← y + k·x`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn axpy(k: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy length mismatch");
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += k * xi;
        }
    }

    /// Elementwise difference `a - b`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
        assert_eq!(a.len(), b.len(), "sub length mismatch");
        a.iter().zip(b).map(|(x, y)| x - y).collect()
    }

    /// Scales a vector.
    pub fn scaled(v: &[f64], k: f64) -> Vec<f64> {
        v.iter().map(|x| x * k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::vecops::*;
    use super::*;

    #[test]
    fn constructors() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i.trace().unwrap(), 3.0);

        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);

        let f = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        assert_eq!(f[(1, 1)], 3.0);
    }

    #[test]
    #[should_panic(expected = "inconsistent row lengths")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_identity_and_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(&a * &Matrix::identity(2), a);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matvec_products() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.mul_vec_transposed(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]);
        assert_eq!(a.norm_frobenius(), 5.0);
        assert_eq!(a.norm_one(), 4.0);
        assert_eq!(a.norm_inf(), 4.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn row_swap() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        a.swap_rows(0, 2);
        assert_eq!(a.row(0), &[5.0, 6.0]);
        assert_eq!(a.row(2), &[1.0, 2.0]);
        a.swap_rows(1, 1); // no-op
        assert_eq!(a.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn submatrix_extraction() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = a.submatrix(&[1, 3], &[0, 2]);
        assert_eq!(s, Matrix::from_rows(&[&[4.0, 6.0], &[12.0, 14.0]]));
    }

    #[test]
    fn elementwise_and_assign_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let mut c = a.clone();
        c += &b;
        c -= &b;
        assert_eq!(c, a);
        assert_eq!((&a * 2.0)[(1, 1)], 8.0);
        assert_eq!((-&b)[(0, 0)], -1.0);
    }

    #[test]
    fn trace_non_square_errors() {
        let a = Matrix::zeros(2, 3);
        assert!(a.trace().is_err());
    }

    #[test]
    fn vec_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
        assert_eq!(sub(&[3.0, 5.0], &[1.0, 1.0]), vec![2.0, 4.0]);
        assert_eq!(scaled(&[1.0, -2.0], -2.0), vec![-2.0, 4.0]);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::identity(2);
        let mut b = a.clone();
        b[(0, 0)] += 1e-12;
        assert!(a.approx_eq(&b, 1e-10));
        assert!(!a.approx_eq(&b, 1e-14));
        assert!(!a.approx_eq(&Matrix::zeros(3, 3), 1.0));
    }
}
