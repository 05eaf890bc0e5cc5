//! [`Artifact`] impls for the stack's element-by-element kinds: dense
//! vectors, partitions, solver solutions, run reports and solver
//! checkpoints. Diagrams and compiled kernels persist as arena images
//! instead (see [`crate::image`]).
//!
//! Every codec round-trips **bit-exactly** (f64s travel as bit patterns)
//! and decodes through each type's validating constructor, so corrupted
//! payloads surface as [`StoreError`]s rather than invalid values.

use std::time::Duration;

use mdl_ctmc::{AttemptOutcome, AttemptRecord, RunReport, Solution, SolveStats};
use mdl_partition::Partition;

use crate::artifact::Codec;
use crate::bytes::{ByteReader, ByteWriter};
use crate::StoreError;

/// Known method/kernel labels, so decoded [`AttemptRecord`]s reuse the
/// interned `&'static str`s the rest of the stack compares against.
/// Unknown labels (from a newer writer) are leaked — they are a few bytes
/// and only appear when decoding foreign reports.
fn intern_label(s: String) -> &'static str {
    const KNOWN: &[&str] = &[
        "power",
        "jacobi",
        "gauss_seidel",
        "uniformization",
        "compiled",
        "walk",
        "flat-csr",
        "bounds-lower",
        "bounds-upper",
        "interval",
    ];
    for &k in KNOWN {
        if k == s {
            return k;
        }
    }
    Box::leak(s.into_boxed_str())
}

impl Codec for Vec<f64> {
    const KIND: u16 = 1;
    const NAME: &'static str = "vector";

    fn encode(&self, w: &mut ByteWriter) {
        w.f64_slice(self);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        r.f64_vec()
    }
}

impl Codec for Partition {
    const KIND: u16 = 3;
    const NAME: &'static str = "partition";

    fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.num_classes());
        for c in 0..self.num_classes() {
            w.usize_slice(self.members(c));
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let classes = r.seq_len(8)?;
        let mut members = Vec::with_capacity(classes);
        for _ in 0..classes {
            members.push(r.usize_vec()?);
        }
        Partition::try_from_classes(members).map_err(StoreError::corrupted)
    }
}

impl Codec for Solution {
    const KIND: u16 = 6;
    const NAME: &'static str = "solution";

    fn encode(&self, w: &mut ByteWriter) {
        w.f64_slice(&self.probabilities);
        w.usize(self.stats.iterations);
        w.f64(self.stats.residual);
        w.u64(duration_nanos(self.stats.elapsed));
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let probabilities = r.f64_vec()?;
        let iterations = r.usize()?;
        let residual = r.f64()?;
        let elapsed = Duration::from_nanos(r.u64()?);
        Ok(Solution {
            probabilities,
            stats: SolveStats {
                iterations,
                residual,
                elapsed,
            },
        })
    }
}

impl Codec for RunReport {
    const KIND: u16 = 7;
    const NAME: &'static str = "report";

    fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.attempts.len());
        for a in &self.attempts {
            w.str(a.method);
            match a.kernel {
                Some(k) => {
                    w.u8(1);
                    w.str(k);
                }
                None => w.u8(0),
            }
            w.usize(a.iterations);
            w.f64(a.residual);
            w.u8(outcome_tag(a.outcome));
            match &a.error {
                Some(e) => {
                    w.u8(1);
                    w.str(e);
                }
                None => w.u8(0),
            }
            w.u64(duration_nanos(a.elapsed));
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let n = r.seq_len(1)?;
        let mut attempts = Vec::with_capacity(n);
        for _ in 0..n {
            let method = intern_label(r.str()?);
            let kernel = match r.u8()? {
                0 => None,
                1 => Some(intern_label(r.str()?)),
                t => return Err(StoreError::corrupted(format!("unknown option tag {t}"))),
            };
            let iterations = r.usize()?;
            let residual = r.f64()?;
            let outcome = outcome_from_tag(r.u8()?)?;
            let error = match r.u8()? {
                0 => None,
                1 => Some(r.str()?),
                t => return Err(StoreError::corrupted(format!("unknown option tag {t}"))),
            };
            let elapsed = Duration::from_nanos(r.u64()?);
            attempts.push(AttemptRecord {
                method,
                kernel,
                iterations,
                residual,
                outcome,
                error,
                elapsed,
            });
        }
        Ok(RunReport { attempts })
    }
}

/// A resumable snapshot of an interrupted (or periodically checkpointed)
/// iterative solve: the phase label, progress counters and the full
/// iterate. Written by the pipeline's checkpoint sink; consumed by
/// `--resume`.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The interrupted phase (e.g. `solve.power`).
    pub phase: String,
    /// Iterations completed when the snapshot was taken.
    pub iterations: u64,
    /// Residual at the snapshot (`f64::INFINITY` if none yet).
    pub residual: f64,
    /// The primary iterate vector (normalized for stationary solves; the
    /// power iterate `v` for transient solves).
    pub iterate: Vec<f64>,
    /// Secondary state vector — the weighted partial accumulation of a
    /// transient solve. Empty for stationary solves.
    pub aux: Vec<f64>,
    /// Phase-specific scalars — `[ln_weight, accumulated]` for transient
    /// solves. Empty for stationary solves.
    pub scalars: Vec<f64>,
}

impl Codec for Checkpoint {
    const KIND: u16 = 9;
    const NAME: &'static str = "checkpoint";

    fn encode(&self, w: &mut ByteWriter) {
        w.str(&self.phase);
        w.u64(self.iterations);
        w.f64(self.residual);
        w.f64_slice(&self.iterate);
        w.f64_slice(&self.aux);
        w.f64_slice(&self.scalars);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(Checkpoint {
            phase: r.str()?,
            iterations: r.u64()?,
            residual: r.f64()?,
            iterate: r.f64_vec()?,
            aux: r.f64_vec()?,
            scalars: r.f64_vec()?,
        })
    }
}

fn outcome_tag(o: AttemptOutcome) -> u8 {
    match o {
        AttemptOutcome::Converged => 0,
        AttemptOutcome::NotConverged => 1,
        AttemptOutcome::Diverged => 2,
        AttemptOutcome::Interrupted => 3,
        AttemptOutcome::Failed => 4,
    }
}

fn outcome_from_tag(t: u8) -> Result<AttemptOutcome, StoreError> {
    Ok(match t {
        0 => AttemptOutcome::Converged,
        1 => AttemptOutcome::NotConverged,
        2 => AttemptOutcome::Diverged,
        3 => AttemptOutcome::Interrupted,
        4 => AttemptOutcome::Failed,
        _ => return Err(StoreError::corrupted(format!("unknown outcome tag {t}"))),
    })
}

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
