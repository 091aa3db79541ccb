//! Dense matrix kernels used by the convolution and dense layers.
//!
//! [`matmul`], [`matmul_tn`] and [`matmul_nt`] differ only in how A and
//! B are laid out in memory, so all three are one register-blocked
//! kernel over strided views of A and B. The kernel computes `MR × NR`
//! tiles of C: the `NR` columns of a tile fill two 4-lane SIMD
//! registers per row, and its `MR` rows are independent register
//! accumulators, so one step adds `MR × NR` independent products
//! instead of waiting on the latency of a single running sum.
//!
//! **Bit-exactness contract.** Every element of C is summed from `+0.0`
//! over `l` in ascending order, with one rounding per multiply and one
//! per add: `c = ((0 + a₀b₀) + a₁b₁) + …`. That is the textbook triple
//! loop's arithmetic, so the tile sizes, the operand layout and the
//! thread count never change a bit of the result. The kernel uses no
//! fused multiply-add and never reassociates; its speed comes only from
//! running independent output elements side by side. Products with a
//! zero factor are added, not skipped: for finite operands that is
//! exact, because a sum that starts at `+0.0` can never become `−0.0`.
//!
//! The tile loop reads A by rows and B by `NR`-column panels. Each is
//! read in place when its layout allows (contiguous A rows, row-major
//! B) and copied into that layout otherwise, and each call runs on
//! `(A, B)` or on `(Bᵀ, Aᵀ)`, whichever copies less. Large GEMMs fan
//! their panels out to threads through the shared [`parallel`] work
//! splitter.

use std::borrow::Cow;

/// Threshold (in multiply-accumulates) above which GEMMs fan out to
/// threads.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 22;

/// Width of one SIMD register in `f32` lanes (SSE2, the x86-64
/// baseline).
const LANES: usize = 4;

/// Rows of C per register tile.
const MR: usize = 6;

/// Columns of C per register tile.
const NR: usize = 2 * LANES;

/// One row of a register tile: `NR` accumulators in SIMD-sized groups.
type TileRow = [[f32; LANES]; NR / LANES];

/// `C[m×n] = A[m×k] · B[k×n]` (row-major, overwrite).
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");
    gemm(View::new(a, k, 1), View::new(b, n, 1), c, m, k, n);
}

/// `C[m×n] = Aᵀ·B` where `A` is `k×m` row-major (i.e. C = A'B with A
/// stored transposed). Used for input gradients.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn matmul_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");
    gemm(View::new(a, 1, m), View::new(b, n, 1), c, m, k, n);
}

/// `C[m×n] = A[m×k] · Bᵀ` where `B` is `n×k` row-major. Used for weight
/// gradients (`grad_w = grad_out · im2colᵀ`).
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn matmul_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), n * k, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");
    gemm(View::new(a, k, 1), View::new(b, 1, k), c, m, k, n);
}

/// A read-only strided matrix: element `(i, j)` is
/// `data[i * row + j * col]`.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    row: usize,
    col: usize,
}

impl<'a> View<'a> {
    fn new(data: &'a [f32], row: usize, col: usize) -> Self {
        View { data, row, col }
    }

    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.row + j * self.col]
    }

    fn transposed(self) -> Self {
        View::new(self.data, self.col, self.row)
    }

    /// Whether each row is contiguous, so the kernel reads it in place.
    fn rows_contiguous(&self) -> bool {
        self.col == 1
    }

    /// Whether each row's first `n` values are contiguous and do not
    /// overlap the next row, so full panels are read in place.
    fn panels_in_place(&self, n: usize) -> bool {
        self.col == 1 && self.row >= n
    }
}

/// Values the kernel copies before it can run on these views: A rows
/// that are not contiguous, B panels that are not in place.
fn repack_cost(a: View<'_>, b: View<'_>, m: usize, k: usize, n: usize) -> usize {
    let a_cost = if a.rows_contiguous() { 0 } else { m * k };
    let b_cost = if b.panels_in_place(n) { 0 } else { k * n };
    a_cost + b_cost
}

/// The kernel behind all three entry points: `C = A · B` for strided
/// views of A (`m×k`) and B (`k×n`), C row-major and overwritten.
///
/// It runs either on `(A, B)` or on `(Bᵀ, Aᵀ)`, writing `Cᵀ`
/// transposed into C: each element is the same ascending sum of the
/// same products (`a · b == b · a` exactly), so the orientation is free
/// to pick the one that copies less.
fn gemm(a: View<'_>, b: View<'_>, c: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        c.fill(0.0);
        return;
    }
    let (bt, at) = (b.transposed(), a.transposed());
    // A transposed result is written one element at a time.
    if repack_cost(bt, at, n, k, m) + m * n < repack_cost(a, b, m, k, n) {
        Kernel::new(bt, at, n, k, m).run(c, 1, n);
    } else {
        Kernel::new(a, b, m, k, n).run(c, n, 1);
    }
}

/// One GEMM's operands in the layout the tile loop reads: A as rows
/// (in place or copied), B as `NR`-column panels.
struct Kernel<'a> {
    /// Row `i` of A starts at `a[i * a_stride]`.
    a: Cow<'a, [f32]>,
    a_stride: usize,
    b: View<'a>,
    /// B panels before this index are read from `b` in place.
    first_packed: usize,
    /// The remaining panels, each `k × NR`, zero-filled past column `n`.
    packed: Vec<f32>,
    m: usize,
    k: usize,
    n: usize,
}

impl<'a> Kernel<'a> {
    fn new(a: View<'a>, b: View<'a>, m: usize, k: usize, n: usize) -> Self {
        let (a_rows, a_stride) = if a.rows_contiguous() {
            (Cow::Borrowed(a.data), a.row)
        } else {
            let mut rows = Vec::with_capacity(m * k);
            for i in 0..m {
                rows.extend((0..k).map(|l| a.at(i, l)));
            }
            (Cow::Owned(rows), k)
        };
        // The ragged last panel is always packed.
        let first_packed = if b.panels_in_place(n) { n / NR } else { 0 };
        let mut packed = vec![0.0f32; (n.div_ceil(NR) - first_packed) * k * NR];
        for (q, panel) in packed.chunks_exact_mut(k * NR).enumerate() {
            let j0 = (first_packed + q) * NR;
            for c in 0..NR.min(n - j0) {
                for (l, v) in panel[c..].iter_mut().step_by(NR).enumerate() {
                    *v = b.at(l, j0 + c);
                }
            }
        }
        Kernel {
            a: a_rows,
            a_stride,
            b,
            first_packed,
            packed,
            m,
            k,
            n,
        }
    }

    /// Writes `C[i][j]` to `c[i * row + j * col]`.
    fn run(&self, c: &mut [f32], row: usize, col: usize) {
        let panels = self.n.div_ceil(NR);
        if self.m * self.k * self.n < PARALLEL_FLOP_THRESHOLD {
            for p in 0..panels {
                self.fill_panel(p, &mut c[p * NR * col..], row, col);
            }
            return;
        }
        // Threads take whole panels, each into its own `m × NR` slot of
        // `tiles`, which is then copied into C.
        let slot = self.m * NR;
        let mut tiles = vec![0.0f32; panels * slot];
        parallel::par_rows_mut(
            &mut tiles,
            slot,
            || (),
            |(), p, out| {
                self.fill_panel(p, out, NR, 1);
            },
        );
        for (p, out) in tiles.chunks_exact(slot).enumerate() {
            let j0 = p * NR;
            for (i, t_row) in out.chunks_exact(NR).enumerate() {
                for (jc, &v) in t_row[..NR.min(self.n - j0)].iter().enumerate() {
                    c[i * row + (j0 + jc) * col] = v;
                }
            }
        }
    }

    /// Computes panel `p` (columns `p·NR..`) for every row, writing
    /// `C[i][p·NR + j]` to `out[i * row + j * col]`.
    fn fill_panel(&self, p: usize, out: &mut [f32], row: usize, col: usize) {
        let (panel, panel_stride) = if p < self.first_packed {
            (&self.b.data[p * NR..], self.b.row)
        } else {
            let len = self.k * NR;
            let q = p - self.first_packed;
            (&self.packed[q * len..(q + 1) * len], NR)
        };
        let b = (panel, panel_stride);
        let cols = NR.min(self.n - p * NR);
        let (s, k) = (self.a_stride, self.k);
        for r0 in (0..self.m).step_by(MR) {
            let a = &self.a[r0 * s..];
            let out = &mut out[r0 * row..];
            match MR.min(self.m - r0) {
                1 => store(tile::<1>(a, s, k, b), out, row, col, cols),
                2 => store(tile::<2>(a, s, k, b), out, row, col, cols),
                3 => store(tile::<3>(a, s, k, b), out, row, col, cols),
                4 => store(tile::<4>(a, s, k, b), out, row, col, cols),
                5 => store(tile::<5>(a, s, k, b), out, row, col, cols),
                _ => store(tile::<MR>(a, s, k, b), out, row, col, cols),
            }
        }
    }
}

/// One `R × NR` tile of C from `R` rows of A (`stride` apart, `k`
/// long) and one B panel (row `l` at `panel[l * panel_stride..]`): the
/// register-blocked inner loop. Each accumulator adds its products in
/// ascending `l`, one multiply and one add per step.
#[inline(always)]
fn tile<const R: usize>(
    a: &[f32],
    stride: usize,
    k: usize,
    (panel, panel_stride): (&[f32], usize),
) -> [TileRow; R] {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * stride..r * stride + k]);
    let mut acc = [[[0.0f32; LANES]; NR / LANES]; R];
    for l in 0..k {
        let b_l = &panel[l * panel_stride..l * panel_stride + NR];
        let b_l: TileRow = std::array::from_fn(|g| {
            b_l[g * LANES..(g + 1) * LANES]
                .try_into()
                .expect("a lane group is LANES wide")
        });
        for (acc_r, a_r) in acc.iter_mut().zip(&rows) {
            let a_rl = a_r[l];
            for (acc_g, b_g) in acc_r.iter_mut().zip(&b_l) {
                for (sum, &b_lj) in acc_g.iter_mut().zip(b_g) {
                    *sum += a_rl * b_lj;
                }
            }
        }
    }
    acc
}

/// Writes the first `cols` columns of each tile row `r` to
/// `out[r * row + j * col]`.
fn store<const R: usize>(acc: [TileRow; R], out: &mut [f32], row: usize, col: usize, cols: usize) {
    for (r, acc_r) in acc.iter().enumerate() {
        let values = &acc_r.as_flattened()[..cols];
        if col == 1 {
            out[r * row..r * row + cols].copy_from_slice(values);
        } else {
            for (j, &v) in values.iter().enumerate() {
                out[r * row + j * col] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for l in 0..k {
                    c[i * n + j] += a[i * k + l] * b[l * n + j];
                }
            }
        }
        c
    }

    fn test_matrices(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 7 + 3) % 11) as f32 - 5.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 5 + 1) % 13) as f32 - 6.0)
            .collect();
        (a, b)
    }

    #[test]
    fn matmul_matches_naive() {
        let (m, k, n) = (7, 5, 9);
        let (a, b) = test_matrices(m, k, n);
        let mut c = vec![0.0; m * n];
        matmul(&a, &b, &mut c, m, k, n);
        assert_eq!(c, naive(&a, &b, m, k, n));
    }

    #[test]
    fn matmul_tn_matches_naive() {
        let (m, k, n) = (6, 4, 8);
        // A stored as k×m, B as k×n.
        let a_t: Vec<f32> = (0..k * m)
            .map(|i| ((i * 7 + 3) % 11) as f32 - 5.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 5 + 1) % 13) as f32 - 6.0)
            .collect();
        let mut c = vec![0.0; m * n];
        matmul_tn(&a_t, &b, &mut c, m, k, n);
        // naive: C[i,j] = sum_l A_t[l*m+i] * B[l*n+j]
        let mut expected = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for l in 0..k {
                    expected[i * n + j] += a_t[l * m + i] * b[l * n + j];
                }
            }
        }
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_nt_matches_naive() {
        let (m, k, n) = (5, 6, 4);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 7 + 3) % 11) as f32 - 5.0)
            .collect();
        let b_t: Vec<f32> = (0..n * k).map(|i| ((i * 3 + 2) % 9) as f32 - 4.0).collect();
        let mut c = vec![0.0; m * n];
        matmul_nt(&a, &b_t, &mut c, m, k, n);
        let mut expected = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for l in 0..k {
                    expected[i * n + j] += a[i * k + l] * b_t[j * k + l];
                }
            }
        }
        assert_eq!(c, expected);
    }

    #[test]
    fn large_parallel_matmul_matches_naive() {
        // Force the parallel path.
        let (m, k, n) = (64, 64, 1100);
        let (a, b) = test_matrices(m, k, n);
        let mut c = vec![0.0; m * n];
        matmul(&a, &b, &mut c, m, k, n);
        assert_eq!(c, naive(&a, &b, m, k, n));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn dimension_mismatch_panics() {
        let mut c = vec![0.0; 4];
        matmul(&[1.0; 3], &[1.0; 4], &mut c, 2, 2, 2);
    }

    /// Non-integer operands of mixed sign and magnitude: unlike small
    /// integers, their partial sums round, so any other summation order
    /// shows up in the low bits.
    fn operands(len: usize, seed: u64) -> Vec<f32> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let unit = (x >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                unit * [0.01, 1.0, 37.0][(x % 3) as usize]
            })
            .collect()
    }

    /// `C[i][j]` summed from +0.0 over `l` ascending, one rounding per
    /// multiply and per add, for `A(i, l)` and `B(l, j)` given as
    /// closures.
    fn sequential_sum(
        m: usize,
        k: usize,
        n: usize,
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
    ) -> Vec<u32> {
        let mut c = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                let mut sum = 0.0f32;
                for l in 0..k {
                    sum += a(i, l) * b(l, j);
                }
                c.push(sum.to_bits());
            }
        }
        c
    }

    fn bits(c: &[f32]) -> Vec<u32> {
        c.iter().map(|v| v.to_bits()).collect()
    }

    /// Shapes with a ragged tail in every tile dimension, `k = 1`, `m`
    /// or `n` below one tile, and GEMMs on both sides of
    /// `PARALLEL_FLOP_THRESHOLD`. The last two run transposed (`(Bᵀ,
    /// Aᵀ)` copies less) through the threaded path for `matmul_nt` and
    /// `matmul_tn` respectively.
    fn order_sensitive_shapes() -> Vec<(usize, usize, usize)> {
        let shapes = vec![
            (1, 1, 1),
            (1, 7, 1),
            (MR - 1, 1, NR - 1),
            (MR + 1, 1, NR + 1),
            (2 * MR + 5, 9, 3 * NR + 3),
            (3, 300, 5),
            (MR, 75, 4 * NR),
            (17, 33, NR - 3),
            (200, 150, 141),
            (8, 700, 801),
            (801, 700, 8),
        ];
        let threaded = |&(m, k, n): &(usize, usize, usize)| m * k * n >= PARALLEL_FLOP_THRESHOLD;
        assert!(shapes.iter().any(threaded) && !shapes.iter().all(threaded));
        shapes
    }

    #[test]
    fn all_entry_points_sum_in_order_bit_for_bit() {
        for (m, k, n) in order_sensitive_shapes() {
            let x = operands(m * k, (m * 1000 + k) as u64);
            let y = operands(k * n, (n * 1000 + k + 7) as u64);
            let mut c = vec![f32::NAN; m * n];

            // x as A[m×k], y as B[k×n].
            matmul(&x, &y, &mut c, m, k, n);
            let want = sequential_sum(m, k, n, |i, l| x[i * k + l], |l, j| y[l * n + j]);
            assert_eq!(bits(&c), want, "matmul {m}x{k}x{n}");

            // x as Aᵀ stored k×m, y as B[k×n].
            c.fill(f32::NAN);
            matmul_tn(&x, &y, &mut c, m, k, n);
            let want = sequential_sum(m, k, n, |i, l| x[l * m + i], |l, j| y[l * n + j]);
            assert_eq!(bits(&c), want, "matmul_tn {m}x{k}x{n}");

            // x as A[m×k], y as Bᵀ stored n×k.
            c.fill(f32::NAN);
            matmul_nt(&x, &y, &mut c, m, k, n);
            let want = sequential_sum(m, k, n, |i, l| x[i * k + l], |l, j| y[j * k + l]);
            assert_eq!(bits(&c), want, "matmul_nt {m}x{k}x{n}");
        }
    }

    #[test]
    fn zero_factors_keep_sums_positive_zero() {
        // A zero row against negative B, and a zero column of B against
        // negative A: every product is −0.0 and every sum must stay
        // +0.0, as the sequential sum from +0.0 leaves it.
        let (m, k, n) = (MR + 1, 5, NR + 1);
        let mut a = operands(m * k, 3)
            .iter()
            .map(|v| -v.abs())
            .collect::<Vec<_>>();
        a[..k].fill(0.0);
        let mut b = operands(k * n, 4)
            .iter()
            .map(|v| -v.abs())
            .collect::<Vec<_>>();
        for l in 0..k {
            b[l * n] = 0.0;
        }
        let mut c = vec![f32::NAN; m * n];
        matmul(&a, &b, &mut c, m, k, n);
        for j in 0..n {
            assert_eq!(c[j].to_bits(), 0.0f32.to_bits(), "row 0, col {j}");
        }
        for i in 0..m {
            assert_eq!(c[i * n].to_bits(), 0.0f32.to_bits(), "row {i}, col 0");
        }
    }

    #[test]
    fn empty_reduction_yields_positive_zeros() {
        let mut c = vec![f32::NAN; 3 * 20];
        matmul(&[], &[], &mut c, 3, 0, 20);
        assert!(c.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
        c.fill(f32::NAN);
        matmul_nt(&[], &[], &mut c, 3, 0, 20);
        assert!(c.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
    }
}
