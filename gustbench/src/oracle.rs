//! Input vectors and the answers they must produce, computed before any
//! clock starts so checking a timed answer is a compare, not an SpMV.

use crate::adapter::{self, CsrMatrix};
use crate::gen::{self, Rng, Values};

/// How an answer is judged.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Bit-identical to the reference CSR kernel (integer-valued inputs:
    /// every summation order is exact).
    Exact,
    /// Within `4 · k_max · ε_f32 · Σ|a||x|` of the f64 oracle per row, the
    /// bound the library documents for its FMA paths.
    Bounded,
}

/// One input vector with its expected answer.
pub struct Probe {
    pub x: Vec<f32>,
    /// `Exact` only: the input widened, for f64 requests.
    pub x64: Vec<f64>,
    /// `Exact`: the reference CSR output widened. `Bounded`: the f64 oracle.
    pub want: Vec<f64>,
    /// `Exact` only: the reference CSR output.
    pub want32: Vec<f32>,
    /// `Bounded` only: per-row tolerance.
    pub tol: Vec<f64>,
}

/// A matrix with its input pool.
pub struct Case {
    pub name: &'static str,
    pub m: CsrMatrix,
    pub check: Check,
    pub probes: Vec<Probe>,
}

impl Case {
    pub fn new(
        name: &'static str,
        m: CsrMatrix,
        values: Values,
        pool: usize,
        rng: &mut Rng,
    ) -> Self {
        let check = match values {
            Values::Integer => Check::Exact,
            Values::Real => Check::Bounded,
        };
        let (indptr, _, vals) = m.raw_parts();
        let k_max = (0..m.rows())
            .map(|r| indptr[r + 1] - indptr[r])
            .max()
            .unwrap_or(0);
        let abs_m = (check == Check::Bounded).then(|| {
            let abs_vals: Vec<f32> = vals.iter().map(|v| v.abs()).collect();
            CsrMatrix::try_new(
                m.rows(),
                m.cols(),
                indptr.to_vec(),
                m.raw_parts().1.to_vec(),
                abs_vals,
            )
            .expect("same structure as a valid matrix")
        });
        let probes = (0..pool)
            .map(|_| {
                let x = match values {
                    Values::Integer => gen::int_vector(m.cols(), rng),
                    Values::Real => gen::real_vector(m.cols(), rng),
                };
                let x64: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
                // Exact cases keep the f32 answer and the f64 input (for
                // double-precision requests); bounded ones keep the f64
                // oracle and its per-row tolerance.
                let (want32, want, tol, x64) = match check {
                    Check::Exact => {
                        let want32 = adapter::csr_spmv(&m, &x);
                        let want = want32.iter().map(|&v| f64::from(v)).collect();
                        (want32, want, Vec::new(), x64)
                    }
                    Check::Bounded => {
                        let abs_x: Vec<f64> = x64.iter().map(|v| v.abs()).collect();
                        let scale = 4.0 * k_max as f64 * f64::from(f32::EPSILON);
                        let tol = adapter::csr_spmv_f64(abs_m.as_ref().expect("bounded"), &abs_x)
                            .into_iter()
                            .map(|s| scale * s + f64::from(f32::MIN_POSITIVE))
                            .collect();
                        (Vec::new(), adapter::csr_spmv_f64(&m, &x64), tol, Vec::new())
                    }
                };
                Probe {
                    x,
                    x64,
                    want,
                    want32,
                    tol,
                }
            })
            .collect();
        Self {
            name,
            m,
            check,
            probes,
        }
    }

    /// Judges a single-precision answer to probe `i`.
    pub fn check32(&self, i: usize, y: &[f32]) -> Result<(), String> {
        let p = &self.probes[i];
        if y.len() != p.want.len() {
            return Err(format!(
                "{}: answer has {} rows, want {}",
                self.name,
                y.len(),
                p.want.len()
            ));
        }
        match self.check {
            Check::Exact => {
                if let Some(r) = (0..y.len()).find(|&r| y[r].to_bits() != p.want32[r].to_bits()) {
                    return Err(format!(
                        "{}: row {r} = {} but the reference kernel gives {}",
                        self.name, y[r], p.want32[r]
                    ));
                }
            }
            Check::Bounded => {
                if let Some(r) =
                    (0..y.len()).find(|&r| (f64::from(y[r]) - p.want[r]).abs() > p.tol[r])
                {
                    return Err(format!(
                        "{}: row {r} = {} but the f64 oracle gives {} (bound {:e})",
                        self.name, y[r], p.want[r], p.tol[r]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Judges a double-precision answer to probe `i`. Exact cases only:
    /// small integers sum exactly in f64 in any order, so the expected
    /// f64 answer is the reference CSR output widened.
    pub fn check64(&self, i: usize, y: &[f64]) -> Result<(), String> {
        let want = &self.probes[i].want;
        if self.check != Check::Exact || y.len() != want.len() {
            return Err(format!(
                "{}: unexpected f64 answer of {} rows",
                self.name,
                y.len()
            ));
        }
        if let Some(r) = (0..y.len()).find(|&r| y[r].to_bits() != want[r].to_bits()) {
            return Err(format!(
                "{}: f64 row {r} = {} but the reference kernel gives {}",
                self.name, y[r], want[r]
            ));
        }
        Ok(())
    }

    pub fn nnz(&self) -> usize {
        self.m.nnz()
    }
}
