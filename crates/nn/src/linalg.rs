//! Dense matrix kernels used by the convolution and dense layers.
//!
//! [`matmul`], [`matmul_tn`] and [`matmul_nt`] differ only in how A and
//! B are laid out in memory, so all three are one register-blocked
//! kernel over strided views of A and B. The kernel computes `MR × NR`
//! tiles of C: the `NR` columns of a tile row fill SIMD registers, and
//! its `MR` rows are independent register accumulators, so one step adds
//! `MR × NR` independent products instead of waiting on the latency of a
//! single running sum.
//!
//! The tile loop is one generic body with two instances: one compiled
//! for 4-lane SSE2 registers (the x86-64 baseline, and plain code on
//! other targets), one compiled inside a function built for AVX2, for
//! 8-lane registers. Each process runs the AVX2 instance when its CPU
//! has AVX2, detected once, and the SSE2 instance otherwise. A tile row
//! is two registers wide (`NR` = 8 columns on SSE2, 16 on AVX2), or one
//! 8-lane register when an AVX2 GEMM's C has fewer than 16 columns.
//!
//! **Bit-exactness contract.** Every element of C is summed from `+0.0`
//! over `l` in ascending order, with one rounding per multiply and one
//! per add: `c = ((0 + a₀b₀) + a₁b₁) + …`. That is the textbook triple
//! loop's arithmetic, so the tile sizes, the register width, the operand
//! layout and the thread count never change a bit of the result. The
//! kernel uses no fused multiply-add and never reassociates; its speed
//! comes only from running independent output elements side by side.
//! Products with a zero factor are added, not skipped: for finite
//! operands that is exact, because a sum that starts at `+0.0` can never
//! become `−0.0`.
//!
//! The tile loop reads A by rows and B by `NR`-column panels. Each is
//! read in place when its layout allows (contiguous A rows, row-major
//! B) and copied into that layout otherwise, and each call runs on
//! `(A, B)` or on `(Bᵀ, Aᵀ)`, whichever copies less. Large GEMMs fan
//! their panels out to threads through the shared [`parallel`] work
//! splitter.

use std::borrow::Cow;
use std::sync::LazyLock;

/// Threshold (in multiply-accumulates) above which GEMMs fan out to
/// threads.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 22;

/// Rows of C per register tile.
const MR: usize = 6;

/// One row of a register tile: `G` SIMD registers of `L` lanes each.
type TileRow<const L: usize, const G: usize> = [[f32; L]; G];

/// A compiled instance of the tile loop, named by the registers its
/// tiles fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Simd {
    /// 4-lane registers: SSE2, the x86-64 baseline.
    Sse2,
    /// 8-lane registers. Only [`Simd::detected`] makes this value, and
    /// only on a CPU that has AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Simd {
    /// The widest instance this CPU runs, chosen once per process.
    fn detected() -> Simd {
        static DETECTED: LazyLock<Simd> = LazyLock::new(|| {
            #[cfg(target_arch = "x86_64")]
            if std::is_x86_feature_detected!("avx2") {
                return Simd::Avx2;
            }
            Simd::Sse2
        });
        *DETECTED
    }
}

/// `C[m×n] = A[m×k] · B[k×n]` (row-major, overwrite).
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");
    gemm(
        Simd::detected(),
        View::new(a, k, 1),
        View::new(b, n, 1),
        c,
        m,
        k,
        n,
    );
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
    gemm(
        Simd::detected(),
        View::new(a, 1, m),
        View::new(b, n, 1),
        c,
        m,
        k,
        n,
    );
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
    gemm(
        Simd::detected(),
        View::new(a, k, 1),
        View::new(b, 1, k),
        c,
        m,
        k,
        n,
    );
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
/// views of A (`m×k`) and B (`k×n`), C row-major and overwritten, on
/// the `simd` instance of the tile loop.
///
/// It runs either on `(A, B)` or on `(Bᵀ, Aᵀ)`, writing `Cᵀ`
/// transposed into C: each element is the same ascending sum of the
/// same products (`a · b == b · a` exactly), so the orientation is free
/// to pick the one that copies less.
fn gemm(simd: Simd, a: View<'_>, b: View<'_>, c: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        c.fill(0.0);
        return;
    }
    let (bt, at) = (b.transposed(), a.transposed());
    // A transposed result is written one element at a time. The kernel
    // writes its `C[i][j]` to `c[i * row + j * col]`.
    let (a, b, m, n, row, col) =
        if repack_cost(bt, at, n, k, m) + m * n < repack_cost(a, b, m, k, n) {
            (bt, at, n, m, 1, n)
        } else {
            (a, b, m, n, n, 1)
        };
    // An SSE2 tile row is two 4-lane registers (8 columns). An AVX2 tile
    // row is two 8-lane registers (16 columns) when C has that many
    // columns, and one otherwise: on a narrower C a 16-column tile would
    // mostly multiply padding.
    match simd {
        Simd::Sse2 => Kernel::<4, 2>::new(a, b, m, k, n).run(simd, c, row, col),
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 if n < Kernel::<8, 2>::NR => {
            Kernel::<8, 1>::new(a, b, m, k, n).run(simd, c, row, col);
        }
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => Kernel::<8, 2>::new(a, b, m, k, n).run(simd, c, row, col),
    }
}

/// One GEMM's operands in the layout the tile loop reads: A as rows
/// (in place or copied), B as `NR`-column panels, for tile rows of `G`
/// registers of `L` lanes.
struct Kernel<'a, const L: usize, const G: usize> {
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

impl<'a, const L: usize, const G: usize> Kernel<'a, L, G> {
    /// Columns of C per register tile.
    const NR: usize = L * G;

    fn new(a: View<'a>, b: View<'a>, m: usize, k: usize, n: usize) -> Self {
        let nr = Self::NR;
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
        let first_packed = if b.panels_in_place(n) { n / nr } else { 0 };
        let mut packed = vec![0.0f32; (n.div_ceil(nr) - first_packed) * k * nr];
        for (q, panel) in packed.chunks_exact_mut(k * nr).enumerate() {
            let j0 = (first_packed + q) * nr;
            for c in 0..nr.min(n - j0) {
                for (l, v) in panel[c..].iter_mut().step_by(nr).enumerate() {
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

    /// Writes `C[i][j]` to `c[i * row + j * col]` on the `simd` instance.
    fn run(&self, simd: Simd, c: &mut [f32], row: usize, col: usize) {
        let nr = Self::NR;
        let panels = self.n.div_ceil(nr);
        if self.m * self.k * self.n < PARALLEL_FLOP_THRESHOLD {
            for p in 0..panels {
                self.fill_panel(simd, p, &mut c[p * nr * col..], row, col);
            }
            return;
        }
        // Threads take whole panels, each into its own `m × NR` slot of
        // `tiles`, which is then copied into C.
        let slot = self.m * nr;
        let mut tiles = vec![0.0f32; panels * slot];
        parallel::par_rows_mut(
            &mut tiles,
            slot,
            || (),
            |(), p, out| {
                self.fill_panel(simd, p, out, nr, 1);
            },
        );
        for (p, out) in tiles.chunks_exact(slot).enumerate() {
            let j0 = p * nr;
            for (i, t_row) in out.chunks_exact(nr).enumerate() {
                for (jc, &v) in t_row[..nr.min(self.n - j0)].iter().enumerate() {
                    c[i * row + (j0 + jc) * col] = v;
                }
            }
        }
    }

    /// Computes panel `p` (columns `p·NR..`) for every row on the `simd`
    /// instance, writing `C[i][p·NR + j]` to `out[i * row + j * col]`.
    fn fill_panel(&self, simd: Simd, p: usize, out: &mut [f32], row: usize, col: usize) {
        match simd {
            Simd::Sse2 => self.fill_panel_in(p, out, row, col),
            #[cfg(target_arch = "x86_64")]
            Simd::Avx2 => {
                // SAFETY: only `Simd::detected` makes `Simd::Avx2`, and
                // only after the CPU reported AVX2, the one feature
                // `fill_panel_avx2` is compiled for.
                unsafe { self.fill_panel_avx2(p, out, row, col) }
            }
        }
    }

    /// [`Kernel::fill_panel_in`] compiled for AVX2, without FMA, so each
    /// product and each sum still rounds on its own. The caller must
    /// know that the CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn fill_panel_avx2(&self, p: usize, out: &mut [f32], row: usize, col: usize) {
        self.fill_panel_in(p, out, row, col);
    }

    /// The tile loop over panel `p`. Always inlined, so it compiles for
    /// the target features of the instance that calls it.
    #[inline(always)]
    fn fill_panel_in(&self, p: usize, out: &mut [f32], row: usize, col: usize) {
        let nr = Self::NR;
        let (panel, panel_stride) = if p < self.first_packed {
            (&self.b.data[p * nr..], self.b.row)
        } else {
            let len = self.k * nr;
            let q = p - self.first_packed;
            (&self.packed[q * len..(q + 1) * len], nr)
        };
        let b = (panel, panel_stride);
        let cols = nr.min(self.n - p * nr);
        let (s, k) = (self.a_stride, self.k);
        for r0 in (0..self.m).step_by(MR) {
            let a = &self.a[r0 * s..];
            let out = &mut out[r0 * row..];
            match MR.min(self.m - r0) {
                1 => store(tile::<1, L, G>(a, s, k, b), out, row, col, cols),
                2 => store(tile::<2, L, G>(a, s, k, b), out, row, col, cols),
                3 => store(tile::<3, L, G>(a, s, k, b), out, row, col, cols),
                4 => store(tile::<4, L, G>(a, s, k, b), out, row, col, cols),
                5 => store(tile::<5, L, G>(a, s, k, b), out, row, col, cols),
                _ => store(tile::<MR, L, G>(a, s, k, b), out, row, col, cols),
            }
        }
    }
}

/// One `R × NR` tile of C (`NR = L · G`) from `R` rows of A (`stride`
/// apart, `k` long) and one B panel (row `l` at
/// `panel[l * panel_stride..]`): the register-blocked inner loop. Each
/// accumulator adds its products in ascending `l`, one multiply and one
/// add per step.
#[inline(always)]
fn tile<const R: usize, const L: usize, const G: usize>(
    a: &[f32],
    stride: usize,
    k: usize,
    (panel, panel_stride): (&[f32], usize),
) -> [TileRow<L, G>; R] {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * stride..r * stride + k]);
    let mut acc = [[[0.0f32; L]; G]; R];
    for l in 0..k {
        let b_l = &panel[l * panel_stride..l * panel_stride + L * G];
        let b_l: TileRow<L, G> = std::array::from_fn(|g| {
            b_l[g * L..(g + 1) * L]
                .try_into()
                .expect("a register is L lanes wide")
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
#[inline(always)]
fn store<const R: usize, const L: usize, const G: usize>(
    acc: [TileRow<L, G>; R],
    out: &mut [f32],
    row: usize,
    col: usize,
    cols: usize,
) {
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

    /// Columns of the 8- and 16-column register tiles.
    const NARROW: usize = Kernel::<4, 2>::NR;
    const WIDE: usize = Kernel::<8, 2>::NR;

    /// Shapes with a ragged tail in every tile dimension of both tile
    /// widths, `k = 1`, `m` or `n` below one tile, C on both sides of
    /// the AVX2 instance's switch to 16-column tiles, and GEMMs on both
    /// sides of `PARALLEL_FLOP_THRESHOLD`. The last two run transposed
    /// (`(Bᵀ, Aᵀ)` copies less) through the threaded path for
    /// `matmul_nt` and `matmul_tn` respectively.
    fn order_sensitive_shapes() -> Vec<(usize, usize, usize)> {
        let shapes = vec![
            (1, 1, 1),
            (1, 7, 1),
            (MR - 1, 1, NARROW - 1),
            (MR + 1, 1, NARROW + 1),
            (MR - 1, 2, WIDE - 1),
            (MR + 1, 3, WIDE),
            (2 * MR + 5, 9, 3 * NARROW + 3),
            (3, 300, 5),
            (MR, 75, 4 * NARROW),
            (17, 33, NARROW - 3),
            (200, 150, 141),
            (8, 700, 801),
            (801, 700, 8),
        ];
        let threaded = |&(m, k, n): &(usize, usize, usize)| m * k * n >= PARALLEL_FLOP_THRESHOLD;
        assert!(shapes.iter().any(threaded) && !shapes.iter().all(threaded));
        shapes
    }

    /// Every instance of the tile loop this CPU runs: the SSE2 baseline,
    /// and the detected one when it is wider.
    fn instances() -> Vec<Simd> {
        let mut all = vec![Simd::Sse2];
        if Simd::detected() != Simd::Sse2 {
            all.push(Simd::detected());
        }
        all
    }

    /// The bits of `C = A · B` from `gemm` on one instance, C starting
    /// as NaNs.
    fn gemm_bits(simd: Simd, a: View<'_>, b: View<'_>, m: usize, k: usize, n: usize) -> Vec<u32> {
        let mut c = vec![f32::NAN; m * n];
        gemm(simd, a, b, &mut c, m, k, n);
        bits(&c)
    }

    #[test]
    fn all_entry_points_sum_in_order_bit_for_bit() {
        for simd in instances() {
            for (m, k, n) in order_sensitive_shapes() {
                let x = operands(m * k, (m * 1000 + k) as u64);
                let y = operands(k * n, (n * 1000 + k + 7) as u64);

                // `matmul`: x as A[m×k], y as B[k×n].
                let c = gemm_bits(simd, View::new(&x, k, 1), View::new(&y, n, 1), m, k, n);
                let want = sequential_sum(m, k, n, |i, l| x[i * k + l], |l, j| y[l * n + j]);
                assert_eq!(c, want, "{simd:?} matmul {m}x{k}x{n}");

                // `matmul_tn`: x as Aᵀ stored k×m, y as B[k×n].
                let c = gemm_bits(simd, View::new(&x, 1, m), View::new(&y, n, 1), m, k, n);
                let want = sequential_sum(m, k, n, |i, l| x[l * m + i], |l, j| y[l * n + j]);
                assert_eq!(c, want, "{simd:?} matmul_tn {m}x{k}x{n}");

                // `matmul_nt`: x as A[m×k], y as Bᵀ stored n×k.
                let c = gemm_bits(simd, View::new(&x, k, 1), View::new(&y, 1, k), m, k, n);
                let want = sequential_sum(m, k, n, |i, l| x[i * k + l], |l, j| y[j * k + l]);
                assert_eq!(c, want, "{simd:?} matmul_nt {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn zero_factors_keep_sums_positive_zero() {
        // A zero row against negative B, and a zero column of B against
        // negative A: every product is −0.0 and every sum must stay
        // +0.0, as the sequential sum from +0.0 leaves it.
        let (m, k, n) = (MR + 1, 5, WIDE + 1);
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
        let zero = 0.0f32.to_bits();
        for simd in instances() {
            // C with all `n` columns, and with only the first `NARROW + 1`
            // (B read with row stride `n`), so that each tile width runs.
            for cols in [n, NARROW + 1] {
                let c = gemm_bits(simd, View::new(&a, k, 1), View::new(&b, n, 1), m, k, cols);
                for j in 0..cols {
                    assert_eq!(c[j], zero, "{simd:?} row 0, col {j}");
                }
                for i in 0..m {
                    assert_eq!(c[i * cols], zero, "{simd:?} row {i}, col 0");
                }
            }
        }
    }

    #[test]
    fn empty_reduction_yields_positive_zeros() {
        for simd in instances() {
            // The `matmul` and `matmul_nt` layouts of a 3×0 A and a 0×20 B.
            for (a, b) in [
                (View::new(&[], 0, 1), View::new(&[], 20, 1)),
                (View::new(&[], 0, 1), View::new(&[], 1, 0)),
            ] {
                let c = gemm_bits(simd, a, b, 3, 0, 20);
                assert!(c.iter().all(|&v| v == 0.0f32.to_bits()), "{simd:?}");
            }
        }
    }
}
