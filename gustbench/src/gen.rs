//! Seeded, linear-time matrix generators and a Matrix Market writer.
//!
//! Every generator draws its entries from one splitmix64 stream, buckets
//! them by row with a counting sort, then sorts and de-duplicates each
//! (short) row, so the cost is O(nnz) plus O(nnz · log(row length)). The
//! requested `nnz` is a target: duplicates inside a row are dropped, so the
//! final count can be a little lower. Values are small integers (every
//! summation order is exact) or reals in `[0.5, 1.5)`.

use gust_sparse::CsrMatrix;
use std::io::Write;
use std::path::Path;

/// splitmix64: tiny, seedable, good enough for workload synthesis.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Exponential inter-arrival gap with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// How matrix values are drawn.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Values {
    /// Integers in `1..=8`: every summation order gives the same f32.
    Integer,
    /// Reals in `[0.5, 1.5)`: exercises the FMA rounding bounds.
    Real,
}

/// Column sampler: index into `cols`, drawn from `rng`.
type ColFn<'a> = dyn FnMut(&mut Rng) -> usize + 'a;

/// Builds a CSR matrix from `nnz` (row, col) draws.
fn assemble(
    rows: usize,
    cols: usize,
    nnz: usize,
    values: Values,
    rng: &mut Rng,
    row_of: &mut ColFn<'_>,
    col_of: &mut ColFn<'_>,
) -> CsrMatrix {
    let mut draws: Vec<(u32, u32)> = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let r = row_of(rng);
        let c = col_of(rng);
        draws.push((r as u32, c as u32));
    }
    // Counting sort by row.
    let mut counts = vec![0usize; rows + 1];
    for &(r, _) in &draws {
        counts[r as usize + 1] += 1;
    }
    for i in 0..rows {
        counts[i + 1] += counts[i];
    }
    let mut fill = counts.clone();
    let mut bucketed = vec![0u32; draws.len()];
    for &(r, c) in &draws {
        bucketed[fill[r as usize]] = c;
        fill[r as usize] += 1;
    }
    drop(draws);
    let mut indptr = Vec::with_capacity(rows + 1);
    let mut indices = Vec::with_capacity(bucketed.len());
    indptr.push(0);
    for r in 0..rows {
        let row = &mut bucketed[counts[r]..counts[r + 1]];
        row.sort_unstable();
        let mut last = u32::MAX;
        for &c in row.iter() {
            if c != last {
                indices.push(c);
                last = c;
            }
        }
        indptr.push(indices.len());
    }
    let vals = (0..indices.len())
        .map(|_| match values {
            Values::Integer => (1 + rng.below(8)) as f32,
            Values::Real => 0.5 + rng.unit() as f32,
        })
        .collect();
    CsrMatrix::try_new(rows, cols, indptr, indices, vals).expect("generator builds valid CSR")
}

/// Power-law index over `0..n`: low indices are hot, then scattered by a
/// multiplicative permutation so hot indices are spread over the range.
fn skewed(rng: &mut Rng, n: usize, exponent: f64) -> usize {
    let raw = ((n as f64) * rng.unit().powf(exponent)) as usize;
    // Odd multiplier mod a power of two is a bijection; other sizes fall
    // back to a plain modular scatter.
    (raw.wrapping_mul(0x9e37_79b1) + 12345) % n
}

/// Uniformly scattered entries.
pub fn uniform(rows: usize, cols: usize, nnz: usize, values: Values, seed: u64) -> CsrMatrix {
    let mut rng = Rng::new(seed);
    assemble(
        rows,
        cols,
        nnz,
        values,
        &mut rng,
        &mut |r| r.below(rows),
        &mut |r| r.below(cols),
    )
}

/// Power-law row lengths and column popularity (exponent 2.5 on both).
pub fn power_law(rows: usize, cols: usize, nnz: usize, values: Values, seed: u64) -> CsrMatrix {
    let mut rng = Rng::new(seed);
    assemble(
        rows,
        cols,
        nnz,
        values,
        &mut rng,
        &mut |r| skewed(r, rows, 2.5),
        &mut |r| skewed(r, cols, 2.5),
    )
}

/// All entries in `hubs` columns spread evenly across a very wide range:
/// few columns, each shared by many rows.
pub fn hub(
    rows: usize,
    cols: usize,
    nnz: usize,
    hubs: usize,
    values: Values,
    seed: u64,
) -> CsrMatrix {
    let spread = cols / hubs;
    let mut rng = Rng::new(seed);
    assemble(
        rows,
        cols,
        nnz,
        values,
        &mut rng,
        &mut |r| r.below(rows),
        &mut |r| r.below(hubs) * spread,
    )
}

/// Writes `m` as `coordinate real general` Matrix Market text.
pub fn write_mtx(m: &CsrMatrix, path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", m.rows(), m.cols(), m.nnz())?;
    let (indptr, indices, values) = m.raw_parts();
    for r in 0..m.rows() {
        for k in indptr[r]..indptr[r + 1] {
            let v = values[k];
            if v.fract() == 0.0 {
                writeln!(w, "{} {} {}", r + 1, indices[k] + 1, v as i64)?;
            } else {
                // Shortest round-trip form: the reader parses it back to
                // the identical f32.
                writeln!(w, "{} {} {}", r + 1, indices[k] + 1, v)?;
            }
        }
    }
    w.flush()?;
    w.into_inner().map_err(|e| e.into_error())?.sync_all()
}

/// Dense vector of small integers in `1..=4` (exact in f32 sums).
pub fn int_vector(n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n).map(|_| (1 + rng.below(4)) as f32).collect()
}

/// Dense vector of reals in `[-1, 1)`.
pub fn real_vector(n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n).map(|_| (2.0 * rng.unit() - 1.0) as f32).collect()
}
