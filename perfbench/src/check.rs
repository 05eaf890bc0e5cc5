//! Output checks. Each returns `Err(reason)` for an answer that must be
//! counted as failed; the workloads add every failure to `failed` and
//! so to `fail_frac`.

use mdl_obs::json::{self, Json};

/// `a` and `b` are the same `f64`, bit for bit.
pub fn same_bits(what: &str, a: f64, b: f64) -> Result<(), String> {
    if a.to_bits() == b.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: {a:e} and {b:e} differ in their bits"))
    }
}

/// `|a − b| ≤ tol`, both finite.
pub fn close(what: &str, a: f64, b: f64, tol: f64) -> Result<(), String> {
    if a.is_finite() && b.is_finite() && (a - b).abs() <= tol {
        Ok(())
    } else {
        Err(format!(
            "{what}: {a:e} and {b:e} differ by more than {tol:e}"
        ))
    }
}

/// `[lo, hi]` is a genuine finite interval (`lo < hi`) containing
/// `reference`.
pub fn encloses(lo: f64, hi: f64, reference: f64) -> Result<(), String> {
    if !(lo.is_finite() && hi.is_finite()) {
        return Err(format!("enclosure [{lo:e}, {hi:e}] is not finite"));
    }
    if lo >= hi {
        return Err(format!("enclosure [{lo:e}, {hi:e}] is empty or degenerate"));
    }
    if !(lo <= reference && reference <= hi) {
        return Err(format!(
            "enclosure [{lo:e}, {hi:e}] misses the lumped chain's measure {reference:e}"
        ));
    }
    Ok(())
}

/// What the library computes for a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expected {
    /// A scalar measure.
    Scalar(f64),
    /// A certified enclosure `[lo, hi]`.
    Bounds(f64, f64),
}

/// The fields of a daemon reply the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// `ok`, `error` or `shed`.
    pub status: String,
    /// The scalar measure (the interval midpoint for bounds).
    pub measure: Option<f64>,
    /// `measure_lo`/`measure_hi` of a bounds reply.
    pub bounds: Option<(f64, f64)>,
    /// Server-side time, whole milliseconds.
    pub elapsed_ms: Option<u64>,
    /// Lumped chain size.
    pub lumped_states: Option<u64>,
    /// Whether every stage came from the store or kernel cache.
    pub warm: bool,
}

impl Reply {
    /// Parses one reply line.
    pub fn parse(line: &str) -> Result<Reply, String> {
        let v = json::parse(line).map_err(|e| format!("reply is not JSON: {e}"))?;
        let f = |k: &str| v.get(k).and_then(Json::as_f64);
        Ok(Reply {
            status: v
                .get("status")
                .and_then(Json::as_str)
                .ok_or("reply has no status")?
                .to_string(),
            measure: f("measure"),
            bounds: f("measure_lo").zip(f("measure_hi")),
            elapsed_ms: v.get("elapsed_ms").and_then(Json::as_u64),
            lumped_states: v.get("lumped_states").and_then(Json::as_u64),
            warm: v.get("warm").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// An `ok` reply agrees bit for bit with the library's answer.
pub fn serve_reply(reply: &Reply, expected: Expected) -> Result<(), String> {
    if reply.status != "ok" {
        return Err(format!("status {}", reply.status));
    }
    match expected {
        Expected::Scalar(x) => {
            if reply.bounds.is_some() {
                return Err("scalar request answered with bounds".into());
            }
            same_bits(
                "served measure vs library",
                reply.measure.unwrap_or(f64::NAN),
                x,
            )
        }
        Expected::Bounds(lo, hi) => {
            let (rlo, rhi) = reply
                .bounds
                .ok_or("bounds request answered without bounds")?;
            same_bits("served measure_lo vs library", rlo, lo)?;
            same_bits("served measure_hi vs library", rhi, hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ulp_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn bit_identity_rejects_a_one_ulp_perturbation() {
        let x = 0.987_654_321_f64;
        assert!(same_bits("m", x, x).is_ok());
        assert!(same_bits("m", x, ulp_up(x)).is_err());
        assert!(same_bits("m", f64::NAN, f64::NAN).is_ok());
    }

    #[test]
    fn sweep_agreement_rejects_answers_off_by_more_than_the_tolerance() {
        assert!(close("p", 0.5, 0.5 + 0.9e-9, 1e-9).is_ok());
        assert!(close("p", 0.5, 0.5 + 2e-9, 1e-9).is_err());
        assert!(close("p", 0.5, f64::NAN, 1e-9).is_err());
    }

    #[test]
    fn enclosure_rejects_misses_degenerate_and_non_finite_intervals() {
        assert!(encloses(0.1, 0.2, 0.15).is_ok());
        assert!(encloses(0.1, 0.2, 0.25).is_err());
        assert!(encloses(0.1, 0.2, 0.05).is_err());
        assert!(encloses(0.2, 0.2, 0.2).is_err());
        assert!(encloses(0.2, 0.1, 0.15).is_err());
        assert!(encloses(f64::NEG_INFINITY, 0.2, 0.1).is_err());
    }

    #[test]
    fn serve_check_rejects_perturbed_or_non_ok_replies() {
        let ok = Reply::parse(
            r#"{"status":"ok","measure":0.25,"lumped_states":10,"warm":true,"elapsed_ms":1}"#,
        )
        .unwrap();
        assert!(serve_reply(&ok, Expected::Scalar(0.25)).is_ok());
        assert!(serve_reply(&ok, Expected::Scalar(ulp_up(0.25))).is_err());
        assert!(serve_reply(&ok, Expected::Bounds(0.2, 0.3)).is_err());

        let b = Reply::parse(
            r#"{"status":"ok","measure":0.25,"measure_lo":0.2,"measure_hi":0.3,"elapsed_ms":4}"#,
        )
        .unwrap();
        assert!(serve_reply(&b, Expected::Bounds(0.2, 0.3)).is_ok());
        assert!(serve_reply(&b, Expected::Bounds(0.2, ulp_up(0.3))).is_err());
        assert!(serve_reply(&b, Expected::Scalar(0.25)).is_err());

        let shed = Reply::parse(r#"{"status":"shed","retry_after_ms":25}"#).unwrap();
        assert!(serve_reply(&shed, Expected::Scalar(0.25)).is_err());
        assert!(Reply::parse("not json").is_err());
    }
}
