//! Dense matrices over exact rationals, with the small amount of linear
//! algebra a polyhedral scheduler needs: row reduction, rank, kernels and
//! linear-system solving — plus the primitive integer kernel the
//! influenced scheduler builds the orthogonal-subspace matrix `H⊥` of the
//! Pluto progression constraints from (paper Section IV-A.3).

use crate::rat::{gcd, lcm, Rat};
use std::fmt;
use std::ops::{Index, IndexMut, Mul};

/// A dense, row-major matrix of [`Rat`] entries.
///
/// # Examples
///
/// ```
/// use polyject_arith::{Matrix, Rat};
/// let m = Matrix::from_rows(&[vec![1, 2], vec![3, 4]]);
/// assert_eq!(m.rank(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Rat>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub fn zero(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![Rat::ZERO; rows * cols],
        }
    }

    /// Creates a matrix from integer rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<i128>]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let data = rows.iter().flatten().map(|&v| Rat::int(v)).collect();
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns the row at `r` as a slice.
    pub fn row(&self, r: usize) -> &[Rat] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the column count (unless the
    /// matrix is empty, in which case the width is adopted).
    pub fn push_row(&mut self, row: Vec<Rat>) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend(row);
        self.rows += 1;
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zero(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// In-place reduced row echelon form; returns the pivot columns.
    pub(crate) fn rref(&mut self) -> Vec<usize> {
        let mut pivots = Vec::new();
        let mut r = 0;
        for c in 0..self.cols {
            if r == self.rows {
                break;
            }
            // Find a pivot in column c at or below row r.
            let Some(p) = (r..self.rows).find(|&i| !self[(i, c)].is_zero()) else {
                continue;
            };
            self.swap_rows(r, p);
            let inv = self[(r, c)].recip();
            if inv != Rat::ONE {
                for j in 0..self.cols {
                    self[(r, j)] *= inv;
                }
            }
            for i in 0..self.rows {
                if i != r && !self[(i, c)].is_zero() {
                    let f = self[(i, c)];
                    for j in 0..self.cols {
                        // Subtracting 0·f is a no-op; pivot rows are sparse
                        // after earlier eliminations, so skipping them cuts
                        // most of the exact-rational work.
                        let p = self[(r, j)];
                        if p.is_zero() {
                            continue;
                        }
                        let sub = p * f;
                        self[(i, j)] -= sub;
                    }
                }
            }
            pivots.push(c);
            r += 1;
        }
        pivots
    }

    /// The rank of the matrix.
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        m.rref().len()
    }

    /// A basis of the right kernel (nullspace): every returned vector `v`
    /// satisfies `self * v = 0`.
    pub(crate) fn kernel_basis(&self) -> Vec<Vec<Rat>> {
        let mut m = self.clone();
        let pivots = m.rref();
        let mut basis = Vec::new();
        let pivot_set: std::collections::HashSet<usize> = pivots.iter().copied().collect();
        for free in 0..self.cols {
            if pivot_set.contains(&free) {
                continue;
            }
            let mut v = vec![Rat::ZERO; self.cols];
            v[free] = Rat::ONE;
            for (r, &pc) in pivots.iter().enumerate() {
                v[pc] = -m[(r, free)];
            }
            basis.push(v);
        }
        basis
    }

    /// Solves `self * x = b`, returning one solution if the system is
    /// consistent.
    ///
    /// # Examples
    ///
    /// ```
    /// use polyject_arith::{Matrix, Rat};
    /// let m = Matrix::from_rows(&[vec![2, 0], vec![0, 4]]);
    /// let x = m.solve(&[Rat::int(6), Rat::int(8)]).unwrap();
    /// assert_eq!(x, vec![Rat::int(3), Rat::int(2)]);
    /// ```
    pub fn solve(&self, b: &[Rat]) -> Option<Vec<Rat>> {
        assert_eq!(b.len(), self.rows, "dimension mismatch");
        let mut aug = Matrix::zero(self.rows, self.cols + 1);
        for i in 0..self.rows {
            for j in 0..self.cols {
                aug[(i, j)] = self[(i, j)];
            }
            aug[(i, self.cols)] = b[i];
        }
        let pivots = aug.rref();
        // Inconsistent if a pivot lands in the augmented column.
        if pivots.last() == Some(&self.cols) {
            return None;
        }
        let mut x = vec![Rat::ZERO; self.cols];
        for (r, &c) in pivots.iter().enumerate() {
            x[c] = aug[(r, self.cols)];
        }
        Some(x)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }
}

/// Scales a rational vector to a primitive integer vector (integer entries
/// with gcd 1), preserving direction.
pub(crate) fn primitive_integer_vector(v: &[Rat]) -> Vec<i128> {
    let mut denom_lcm = 1i128;
    for x in v {
        denom_lcm = lcm(denom_lcm, x.denom());
    }
    if denom_lcm == 0 {
        denom_lcm = 1;
    }
    let ints: Vec<i128> = v
        .iter()
        .map(|x| {
            (x.numer())
                .checked_mul(denom_lcm / x.denom())
                .expect("primitive vector overflow")
        })
        .collect();
    let g = ints.iter().fold(0i128, |acc, &x| gcd(acc, x));
    if g <= 1 {
        ints
    } else {
        ints.iter().map(|&x| x / g).collect()
    }
}

/// A basis of integer vectors spanning the rational kernel of `a`
/// (equivalently, the orthogonal complement of the row space): every
/// returned vector `v` is primitive and satisfies `a * v = 0`.
///
/// This is the `H⊥` construction used by the progression constraint
/// builder.
///
/// # Examples
///
/// ```
/// use polyject_arith::integer_kernel_basis;
/// // Row space spanned by (1, 1, 0): complement has dimension 2.
/// let k = integer_kernel_basis(&[vec![1, 1, 0]]);
/// assert_eq!(k.len(), 2);
/// for v in &k {
///     assert_eq!(v[0] + v[1], 0);
/// }
/// ```
pub fn integer_kernel_basis(a: &[Vec<i128>]) -> Vec<Vec<i128>> {
    if a.is_empty() {
        return Vec::new();
    }
    let m = Matrix::from_rows(a);
    m.kernel_basis()
        .iter()
        .map(|v| primitive_integer_vector(v))
        .collect()
}

impl Index<(usize, usize)> for Matrix {
    type Output = Rat;
    fn index(&self, (r, c): (usize, usize)) -> &Rat {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Rat {
        &mut self.data[r * self.cols + c]
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
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
                write!(f, "{}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mul_vec(m: &Matrix, v: &[Rat]) -> Vec<Rat> {
        let dot = |row: &[Rat]| {
            row.iter()
                .zip(v)
                .fold(Rat::ZERO, |acc, (&a, &b)| acc + a * b)
        };
        (0..m.rows()).map(|i| dot(m.row(i))).collect()
    }

    #[test]
    fn identity_and_mul() {
        let id = Matrix::from_rows(&[vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]]);
        let m = Matrix::from_rows(&[vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 10]]);
        assert_eq!(&id * &m, m);
        assert_eq!(&m * &id, m);
    }

    #[test]
    fn rank_of_singular() {
        let m = Matrix::from_rows(&[vec![1, 2], vec![2, 4]]);
        assert_eq!(m.rank(), 1);
        let m = Matrix::from_rows(&[vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 10]]);
        assert_eq!(m.rank(), 3);
    }

    #[test]
    fn kernel_orthogonal_to_rows() {
        let m = Matrix::from_rows(&[vec![1, 0, 1], vec![0, 1, -1]]);
        let k = m.kernel_basis();
        assert_eq!(k.len(), 1);
        assert!(mul_vec(&m, &k[0]).iter().all(Rat::is_zero));
    }

    #[test]
    fn kernel_of_full_rank_square_is_empty() {
        let m = Matrix::from_rows(&[vec![2, 1], vec![1, 1]]);
        assert!(m.kernel_basis().is_empty());
    }

    #[test]
    fn integer_kernel_is_primitive_orthogonal_complement() {
        let a = vec![vec![2, 0, 1], vec![0, 3, 1]];
        let k = integer_kernel_basis(&a);
        assert_eq!(k, vec![vec![-3, -2, 6]]);
        assert!(integer_kernel_basis(&[vec![1, 0], vec![0, 1]]).is_empty());
        assert_eq!(
            primitive_integer_vector(&[Rat::ZERO, Rat::ZERO]),
            vec![0, 0]
        );
        assert_eq!(
            primitive_integer_vector(&[Rat::new(1, 2), Rat::new(-3, 4)]),
            vec![2, -3]
        );
    }

    #[test]
    fn solve_consistent_and_inconsistent() {
        let m = Matrix::from_rows(&[vec![1, 1], vec![1, -1]]);
        let x = m.solve(&[Rat::int(4), Rat::int(2)]).unwrap();
        assert_eq!(x, vec![Rat::int(3), Rat::int(1)]);

        let sing = Matrix::from_rows(&[vec![1, 1], vec![2, 2]]);
        assert!(sing.solve(&[Rat::int(1), Rat::int(3)]).is_none());
        // Consistent underdetermined system still yields a solution.
        let x = sing.solve(&[Rat::int(1), Rat::int(2)]).unwrap();
        assert_eq!(mul_vec(&sing, &x), vec![Rat::int(1), Rat::int(2)]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().rows(), 3);
    }

    #[test]
    fn push_row_adopts_width() {
        let mut m = Matrix::zero(0, 0);
        m.push_row(vec![Rat::ONE, Rat::ZERO]);
        m.push_row(vec![Rat::ZERO, Rat::ONE]);
        assert_eq!(m, Matrix::from_rows(&[vec![1, 0], vec![0, 1]]));
    }
}
