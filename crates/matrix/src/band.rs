//! Band matrix storage.
//!
//! The Kung–Leiserson arrays operate on *band* matrices: only the diagonals
//! `d = j - i` with `-lower <= d <= upper` are stored.  The paper's DBT
//! transformation produces exactly such matrices, with every stored position
//! filled by an element of the original dense matrix (that is what makes the
//! array fully utilised).

use crate::{DenseMatrix, MatrixError, Scalar};
use std::fmt;

/// Shape descriptor of a band matrix: overall dimensions plus the number of
/// stored sub- and super-diagonals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BandShape {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Number of stored sub-diagonals (`j - i >= -lower`).
    pub lower: usize,
    /// Number of stored super-diagonals (`j - i <= upper`).
    pub upper: usize,
}

impl BandShape {
    /// Total number of stored diagonals, `lower + upper + 1` — this is the
    /// *bandwidth* `w` in the paper's terminology when the band is one-sided.
    #[inline]
    pub fn bandwidth(&self) -> usize {
        self.lower + self.upper + 1
    }

    /// Returns `true` if `(i, j)` falls inside both the matrix bounds and the
    /// stored band.
    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        i < self.rows && j < self.cols && j + self.lower >= i && i + self.upper >= j
    }

    /// Number of `(i, j)` positions inside both the matrix and the band.
    pub fn capacity(&self) -> usize {
        let mut count = 0;
        for i in 0..self.rows {
            let lo = i.saturating_sub(self.lower);
            let hi = (i + self.upper + 1).min(self.cols);
            count += hi.saturating_sub(lo);
        }
        count
    }
}

/// A band matrix: only the diagonals `j - i ∈ [-lower, upper]` are stored.
///
/// Reads outside the band (but inside the matrix bounds) return zero; writes
/// outside the band are an error, because the whole point of the paper's
/// transformation is that nothing ever needs to live outside the band.
///
/// # Example
///
/// ```
/// use sia_matrix::BandMatrix;
///
/// # fn main() -> Result<(), sia_matrix::MatrixError> {
/// // An upper-band matrix with bandwidth 3 (offsets 0, 1, 2).
/// let mut b = BandMatrix::<i64>::new(4, 6, 0, 2)?;
/// b.set(1, 3, 7)?;
/// assert_eq!(b.get(1, 3), 7);
/// assert_eq!(b.get(1, 0), 0);          // inside matrix, outside band
/// assert!(b.set(1, 0, 1).is_err());    // cannot write outside the band
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct BandMatrix<T> {
    shape: BandShape,
    /// Row-major storage of the band: `data[i * width + (j - i + lower)]`.
    data: Vec<T>,
}

impl<T: Scalar> BandMatrix<T> {
    /// Creates an all-zero band matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::EmptyDimension`] if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize, lower: usize, upper: usize) -> Result<Self, MatrixError> {
        if rows == 0 {
            return Err(MatrixError::EmptyDimension { what: "rows" });
        }
        if cols == 0 {
            return Err(MatrixError::EmptyDimension { what: "cols" });
        }
        let shape = BandShape {
            rows,
            cols,
            lower,
            upper,
        };
        let width = shape.bandwidth();
        Ok(BandMatrix {
            shape,
            data: vec![T::zero(); rows * width],
        })
    }

    /// Creates an all-zero band matrix reusing `storage` as its backing
    /// buffer: the vector is cleared and zero-resized in place, so no
    /// reallocation happens when its capacity already covers
    /// `rows * bandwidth`.  This is the slab-recycling constructor of the
    /// DBT operand caches — same-shape bands have identical layouts, so an
    /// evicted band's storage can back its replacement without a free/alloc
    /// pair on the staging path.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::EmptyDimension`] if `rows` or `cols` is zero.
    pub fn with_storage(
        rows: usize,
        cols: usize,
        lower: usize,
        upper: usize,
        mut storage: Vec<T>,
    ) -> Result<Self, MatrixError> {
        if rows == 0 {
            return Err(MatrixError::EmptyDimension { what: "rows" });
        }
        if cols == 0 {
            return Err(MatrixError::EmptyDimension { what: "cols" });
        }
        let shape = BandShape {
            rows,
            cols,
            lower,
            upper,
        };
        storage.clear();
        storage.resize(rows * shape.bandwidth(), T::zero());
        Ok(BandMatrix {
            shape,
            data: storage,
        })
    }

    /// Consumes the band matrix and returns its backing storage, for reuse
    /// through [`BandMatrix::with_storage`].
    pub fn into_storage(self) -> Vec<T> {
        self.data
    }

    /// Builds a band matrix from a dense one, checking that every non-zero
    /// entry of `dense` lies inside the requested band.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::NotBanded`] if a non-zero entry falls outside
    /// the band, or [`MatrixError::EmptyDimension`] for empty inputs.
    pub fn try_from_dense(
        dense: &DenseMatrix<T>,
        lower: usize,
        upper: usize,
    ) -> Result<Self, MatrixError> {
        let mut band = Self::new(dense.rows(), dense.cols(), lower, upper)?;
        for (i, j, v) in dense.iter() {
            if v.is_zero() {
                continue;
            }
            if !band.shape.contains(i, j) {
                return Err(MatrixError::NotBanded { index: (i, j) });
            }
            band.set(i, j, v)?;
        }
        Ok(band)
    }

    /// The shape descriptor (dimensions and stored diagonals).
    pub fn band_shape(&self) -> BandShape {
        self.shape
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.shape.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.shape.cols
    }

    /// Number of stored sub-diagonals.
    pub fn lower(&self) -> usize {
        self.shape.lower
    }

    /// Number of stored super-diagonals.
    pub fn upper(&self) -> usize {
        self.shape.upper
    }

    /// Total number of stored diagonals.
    pub fn bandwidth(&self) -> usize {
        self.shape.bandwidth()
    }

    #[inline]
    fn slot(&self, i: usize, j: usize) -> Option<usize> {
        if self.shape.contains(i, j) {
            Some(i * self.shape.bandwidth() + (j + self.shape.lower - i))
        } else {
            None
        }
    }

    /// Value at `(i, j)`.
    ///
    /// Positions inside the matrix but outside the band read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is outside the matrix bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(
            i < self.shape.rows && j < self.shape.cols,
            "index ({i}, {j}) out of bounds for {}x{} band matrix",
            self.shape.rows,
            self.shape.cols
        );
        match self.slot(i, j) {
            Some(s) => self.data[s],
            None => T::zero(),
        }
    }

    /// Sets the value at `(i, j)`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] outside the matrix and
    /// [`MatrixError::OutsideBand`] inside the matrix but outside the band.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: T) -> Result<(), MatrixError> {
        if i >= self.shape.rows || j >= self.shape.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: (i, j),
                shape: (self.shape.rows, self.shape.cols),
            });
        }
        match self.slot(i, j) {
            Some(s) => {
                self.data[s] = value;
                Ok(())
            }
            None => Err(MatrixError::OutsideBand {
                index: (i, j),
                lower: self.shape.lower,
                upper: self.shape.upper,
            }),
        }
    }

    /// Expands the band matrix into a dense one.
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut d = DenseMatrix::zeros(self.shape.rows, self.shape.cols);
        for (i, j, v) in self.iter() {
            d.set(i, j, v).expect("band position is inside the matrix");
        }
        d
    }

    /// Iterator over the stored `(row, col, value)` positions (whether zero
    /// or not), in row-major band order — the order the systolic schedule
    /// consumes them in.
    pub fn iter(&self) -> BandIter<'_, T> {
        BandIter {
            band: self,
            row: 0,
            offset: 0,
        }
    }

    /// Number of stored positions that fall inside the matrix bounds.
    pub fn capacity(&self) -> usize {
        self.shape.capacity()
    }

    /// Fraction of stored in-bounds positions holding a non-zero value.
    ///
    /// The paper's claim "the transformed matrix band is filled (no empty
    /// position) with elements from the original matrix" translates to an
    /// occupancy close to 1 for generic dense inputs.
    pub fn occupancy(&self) -> f64 {
        let cap = self.capacity();
        if cap == 0 {
            return 0.0;
        }
        let filled = self.iter().filter(|&(_, _, v)| !v.is_zero()).count();
        filled as f64 / cap as f64
    }

    /// Values along diagonal `d = j - i` (`d` may be negative), top to bottom,
    /// restricted to stored, in-bounds positions.
    pub fn diagonal(&self, d: isize) -> Vec<T> {
        let mut out = Vec::new();
        for i in 0..self.shape.rows {
            let j = i as isize + d;
            if j >= 0 && self.shape.contains(i, j as usize) {
                out.push(self.get(i, j as usize));
            }
        }
        out
    }

    /// Largest absolute difference with a dense reference matrix of the same
    /// dimensions (`None` if the shapes differ).
    pub fn max_abs_diff_dense(&self, dense: &DenseMatrix<T>) -> Option<f64> {
        self.to_dense().max_abs_diff(dense)
    }

    /// The stored slots of row `i` as a contiguous slice of length
    /// [`BandMatrix::bandwidth`]; slot `o` of the slice holds the element at
    /// column `i − lower + o`.
    ///
    /// Slots whose column falls outside the matrix bounds are present in the
    /// slice but meaningless (they read as zero through [`BandMatrix::get`]);
    /// hot loops that index the slice directly must respect the band shape
    /// themselves.  This is the zero-copy access path the cycle simulators
    /// use instead of per-element [`BandMatrix::get`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the matrix.
    #[inline]
    pub fn row_slice(&self, i: usize) -> &[T] {
        let width = self.shape.bandwidth();
        &self.data[i * width..(i + 1) * width]
    }

    /// The whole row-major storage: `(i, j)` lives at slot
    /// `i * bandwidth + (j + lower − i)` (see [`BandMatrix::row_slice`]),
    /// the same slot in every band of one [`BandShape`].
    #[inline]
    pub fn storage(&self) -> &[T] {
        &self.data
    }

    /// Mutable borrow of the stored slots of row `i` (see
    /// [`BandMatrix::row_slice`] for the slot layout).
    ///
    /// Like [`BandMatrix::copy_row_block`], this bypasses the per-element
    /// band check of [`BandMatrix::set`]: the caller must only write slots
    /// whose column is inside the matrix (true for every slot of the full
    /// DBT bands the transformation builders fill through this).  It is the
    /// zero-copy *construction* path matching the simulators' zero-copy
    /// read path.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the matrix.
    #[inline]
    pub fn row_slice_mut(&mut self, i: usize) -> &mut [T] {
        let width = self.shape.bandwidth();
        &mut self.data[i * width..(i + 1) * width]
    }

    /// Copies the stored slots of `count` rows starting at `src_row` over the
    /// rows starting at `dst_row` (one `memmove`, no per-element branching).
    ///
    /// This is the juxtaposition primitive of the DBT operand builders: the
    /// transformed band repeats the same block pattern many times, so one
    /// reference copy is built element-wise and the rest are row-block
    /// copies.  The caller must guarantee that every copied slot is in-band
    /// at its destination (true for the interior of the DBT bands); slots
    /// outside the matrix bounds at the destination would otherwise carry
    /// junk that breaks `PartialEq`.
    ///
    /// # Panics
    ///
    /// Panics if either row range extends past the matrix.
    pub fn copy_row_block(&mut self, src_row: usize, dst_row: usize, count: usize) {
        let width = self.shape.bandwidth();
        assert!(
            src_row + count <= self.shape.rows && dst_row + count <= self.shape.rows,
            "row block copy [{src_row}, +{count}) -> [{dst_row}, +{count}) exceeds {} rows",
            self.shape.rows
        );
        self.data
            .copy_within(src_row * width..(src_row + count) * width, dst_row * width);
    }

    /// The stored diagonal offsets, `-lower ..= upper`.
    #[inline]
    pub fn diagonal_offsets(&self) -> impl Iterator<Item = isize> {
        -(self.shape.lower as isize)..=(self.shape.upper as isize)
    }

    /// Iterator over the in-bounds `(row, col, value)` entries of stored
    /// diagonal `d = j − i`, top to bottom, with **no per-element bounds
    /// branching**: the row range is resolved once up front and the storage
    /// is then walked at a fixed stride.  The simulators use this to build
    /// their injection tapes (entry cycles are closed-form per diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `d` is not a stored diagonal (`-lower <= d <= upper`).
    #[inline]
    pub fn diagonal_entries(&self, d: isize) -> DiagonalEntries<'_, T> {
        assert!(
            -(self.shape.lower as isize) <= d && d <= self.shape.upper as isize,
            "diagonal {d} is not stored (lower {}, upper {})",
            self.shape.lower,
            self.shape.upper
        );
        let i_start = if d < 0 { (-d) as usize } else { 0 };
        let cols_limit = if d > 0 {
            self.shape.cols.saturating_sub(d as usize)
        } else {
            self.shape.cols + (-d) as usize
        };
        let i_end = self.shape.rows.min(cols_limit).max(i_start);
        DiagonalEntries {
            band: self,
            d,
            i: i_start,
            i_end,
        }
    }
}

/// Iterator over one stored diagonal of a [`BandMatrix`]; see
/// [`BandMatrix::diagonal_entries`].
pub struct DiagonalEntries<'a, T> {
    band: &'a BandMatrix<T>,
    d: isize,
    i: usize,
    i_end: usize,
}

impl<T: Scalar> Iterator for DiagonalEntries<'_, T> {
    type Item = (usize, usize, T);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.i >= self.i_end {
            return None;
        }
        let i = self.i;
        self.i += 1;
        let shape = self.band.shape;
        let j = (i as isize + self.d) as usize;
        let slot = i * shape.bandwidth() + (j + shape.lower - i);
        Some((i, j, self.band.data[slot]))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.i_end - self.i;
        (n, Some(n))
    }
}

/// Iterator over the stored positions of a [`BandMatrix`].
pub struct BandIter<'a, T> {
    band: &'a BandMatrix<T>,
    row: usize,
    offset: usize,
}

impl<T: Scalar> Iterator for BandIter<'_, T> {
    type Item = (usize, usize, T);

    fn next(&mut self) -> Option<Self::Item> {
        let shape = self.band.shape;
        loop {
            if self.row >= shape.rows {
                return None;
            }
            if self.offset >= shape.bandwidth() {
                self.row += 1;
                self.offset = 0;
                continue;
            }
            let i = self.row;
            let off = self.offset;
            self.offset += 1;
            // j = i - lower + off; skip when that underflows or leaves bounds.
            let j_signed = i as isize - shape.lower as isize + off as isize;
            if j_signed < 0 {
                continue;
            }
            let j = j_signed as usize;
            if j >= shape.cols {
                continue;
            }
            return Some((i, j, self.band.get(i, j)));
        }
    }
}

impl<T> fmt::Debug for BandMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BandMatrix {}x{} (lower {}, upper {})",
            self.shape.rows, self.shape.cols, self.shape.lower, self.shape.upper,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_empty_dimensions() {
        assert!(BandMatrix::<f64>::new(0, 3, 0, 1).is_err());
        assert!(BandMatrix::<f64>::new(3, 0, 0, 1).is_err());
    }

    #[test]
    fn bandwidth_and_capacity() {
        let b = BandMatrix::<i64>::new(4, 4, 1, 1).unwrap();
        assert_eq!(b.bandwidth(), 3);
        // tridiagonal 4x4: 4 + 3 + 3 = 10 stored in-bounds positions
        assert_eq!(b.capacity(), 10);
    }

    #[test]
    fn set_get_round_trip_inside_band() {
        let mut b = BandMatrix::<i64>::new(5, 5, 1, 2).unwrap();
        b.set(2, 4, 9).unwrap();
        b.set(3, 2, -1).unwrap();
        assert_eq!(b.get(2, 4), 9);
        assert_eq!(b.get(3, 2), -1);
        assert_eq!(b.get(0, 3), 0);
    }

    #[test]
    fn set_outside_band_is_rejected() {
        let mut b = BandMatrix::<i64>::new(5, 5, 0, 1).unwrap();
        let err = b.set(3, 0, 1).unwrap_err();
        assert!(matches!(err, MatrixError::OutsideBand { .. }));
        let err = b.set(9, 0, 1).unwrap_err();
        assert!(matches!(err, MatrixError::IndexOutOfBounds { .. }));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_panics_outside_matrix() {
        let b = BandMatrix::<i64>::new(2, 2, 0, 0).unwrap();
        let _ = b.get(2, 0);
    }

    #[test]
    fn to_dense_and_back() {
        let mut dense = DenseMatrix::<i64>::zeros(4, 5);
        dense.set(0, 1, 3).unwrap();
        dense.set(2, 2, 5).unwrap();
        dense.set(3, 4, 7).unwrap();
        let band = BandMatrix::try_from_dense(&dense, 0, 1).unwrap();
        assert_eq!(band.to_dense(), dense);
    }

    #[test]
    fn try_from_dense_rejects_out_of_band_entries() {
        let mut dense = DenseMatrix::<i64>::zeros(4, 4);
        dense.set(3, 0, 1).unwrap();
        let err = BandMatrix::try_from_dense(&dense, 1, 1).unwrap_err();
        assert_eq!(err, MatrixError::NotBanded { index: (3, 0) });
    }

    #[test]
    fn occupancy_counts_filled_positions() {
        let mut b = BandMatrix::<i64>::new(3, 3, 0, 0).unwrap();
        assert_eq!(b.occupancy(), 0.0);
        b.set(0, 0, 1).unwrap();
        b.set(1, 1, 1).unwrap();
        b.set(2, 2, 1).unwrap();
        assert_eq!(b.occupancy(), 1.0);
    }

    #[test]
    fn diagonal_extraction() {
        let mut b = BandMatrix::<i64>::new(4, 4, 1, 1).unwrap();
        for i in 0..4 {
            b.set(i, i, 10 + i as i64).unwrap();
        }
        b.set(1, 0, -1).unwrap();
        assert_eq!(b.diagonal(0), vec![10, 11, 12, 13]);
        assert_eq!(b.diagonal(-1), vec![-1, 0, 0]);
        assert_eq!(b.diagonal(1), vec![0, 0, 0]);
    }

    #[test]
    fn iter_visits_only_in_bounds_band_positions() {
        let b = BandMatrix::<i64>::new(3, 3, 1, 1).unwrap();
        let positions: Vec<_> = b.iter().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(
            positions,
            vec![(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)]
        );
    }

    #[test]
    fn rectangular_band_shapes() {
        // Upper band of a wide matrix, as produced by the DBT transformation:
        // R rows, R + w - 1 columns, offsets 0..w-1.
        let w = 3;
        let r = 6;
        let b = BandMatrix::<i64>::new(r, r + w - 1, 0, w - 1).unwrap();
        assert_eq!(b.capacity(), r * w);
        assert_eq!(b.band_shape().bandwidth(), w);
    }

    #[test]
    fn debug_mentions_band_profile() {
        let b = BandMatrix::<i64>::new(2, 2, 0, 0).unwrap();
        let repr = format!("{b:?}");
        assert!(repr.contains("BandMatrix 2x2"));
        assert!(repr.contains("lower 0"));
    }
}
