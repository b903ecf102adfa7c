//! Per-iteration solver telemetry: a convergence history (the samples a
//! [`hpf_solvers::RecordingObserver`] keeps) round-tripped through CSV.

use hpf_solvers::IterSample;

/// CSV header written by [`to_csv`]; [`from_csv`] insists on exactly this
/// first line so format drift fails loudly.
pub const CSV_HEADER: &str =
    "iteration,residual_norm,alpha,beta,flops,comm_words,sim_time,predicted_time,rollbacks";

/// Render a sample journal as CSV (header + one row per sample, in
/// emission order: replayed iterations after a rollback appear as
/// repeated iteration numbers). Floats use Rust's `Display`, which
/// [`from_csv`] parses back exactly (including `NaN` for the iterations
/// where a solver never computes β).
pub fn to_csv(samples: &[IterSample]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for s in samples {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            s.iteration,
            s.residual_norm,
            s.alpha,
            s.beta,
            s.flops,
            s.comm_words,
            s.sim_time,
            s.predicted_time,
            s.rollbacks
        ));
    }
    out
}

/// Parse a CSV journal produced by [`to_csv`].
pub fn from_csv(text: &str) -> Result<Vec<IterSample>, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h == CSV_HEADER => {}
        Some(h) => return Err(format!("unexpected header: {h:?}")),
        None => return Err("empty input".to_string()),
    }
    let mut samples = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 9 {
            return Err(format!(
                "row {}: expected 9 columns, got {}",
                i + 2,
                cols.len()
            ));
        }
        let err = |what: &str| format!("row {}: bad {what}", i + 2);
        samples.push(IterSample {
            iteration: cols[0].parse().map_err(|_| err("iteration"))?,
            residual_norm: cols[1].parse().map_err(|_| err("residual_norm"))?,
            alpha: cols[2].parse().map_err(|_| err("alpha"))?,
            beta: cols[3].parse().map_err(|_| err("beta"))?,
            flops: cols[4].parse().map_err(|_| err("flops"))?,
            comm_words: cols[5].parse().map_err(|_| err("comm_words"))?,
            sim_time: cols[6].parse().map_err(|_| err("sim_time"))?,
            predicted_time: cols[7].parse().map_err(|_| err("predicted_time"))?,
            rollbacks: cols[8].parse().map_err(|_| err("rollbacks"))?,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: usize, rn: f64, beta: f64) -> IterSample {
        IterSample {
            iteration: i,
            residual_norm: rn,
            alpha: 0.25,
            beta,
            flops: 100 * i as u64,
            comm_words: 8 * i as u64,
            sim_time: 1e-6 * i as f64,
            predicted_time: 0.9e-6 * i as f64,
            rollbacks: 0,
        }
    }

    #[test]
    fn csv_round_trips_including_nan_beta() {
        let text = to_csv(&[sample(1, 0.5, 0.9), sample(2, 0.25, f64::NAN)]);
        let back = from_csv(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].iteration, 1);
        assert_eq!(back[0].beta, 0.9);
        assert!(back[1].beta.is_nan());
        assert_eq!(back[1].flops, 200);
        // Re-serialisation is byte-identical.
        assert_eq!(to_csv(&back), text);
    }

    #[test]
    fn from_csv_rejects_drifted_formats() {
        assert!(from_csv("").is_err());
        assert!(from_csv("iteration,residual\n").is_err());
        let short_row = format!("{CSV_HEADER}\n1,2,3\n");
        assert!(from_csv(&short_row).is_err());
        let bad_num = format!("{CSV_HEADER}\n1,x,0,0,0,0,0,0,0\n");
        assert!(from_csv(&bad_num).is_err());
        // The pre-oracle 8-column layout is rejected by the header.
        let old = "iteration,residual_norm,alpha,beta,flops,comm_words,sim_time,rollbacks\n";
        assert!(from_csv(old).is_err());
    }
}
