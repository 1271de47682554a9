//! `bless`: regenerate `benchmark/expected/`. Every reference is computed
//! twice first; a reference that does not repeat is refused, because a run
//! could then fail against it through no change of the program.

use crate::refs;
use crate::trace::Tracer;
use crate::workloads::cold_check::check_once;
use crate::workloads::detect_stream::{
    scenario_corpus, verdict_of, PROMPT, REFERENCE_SEED, TIMED_OUT,
};
use crate::workloads::figure1_rows;
use crate::workloads::sim_run::{executors, sorted_output};
use std::collections::BTreeMap;

/// Compute `f` twice; `Err` naming `what` unless both results are equal.
fn twice<T: PartialEq>(what: &str, mut f: impl FnMut() -> Result<T, String>) -> Result<T, String> {
    let (a, b) = (f()?, f()?);
    if a == b {
        Ok(a)
    } else {
        Err(format!("{what} does not repeat: refusing to bless it"))
    }
}

pub fn run() -> Result<(), String> {
    let mut off = Tracer::new();
    for p in figure1_rows()? {
        // Rendered report and the counts (ir.blocks, core.warnings,
        // core.checks_inserted, …) must both repeat.
        let (rendered, counts) = twice(&format!("cold_check/{}", p.row), || {
            check_once(&p, &mut off)
        })?;
        refs::store(&format!("cold_check/{}.txt", p.row), &rendered)?;
        println!(
            "cold_check/{}.txt: {} warnings, {} blocks, {} checks inserted",
            p.row, counts.warnings, counts.blocks, counts.checks_inserted
        );
    }

    for (row, exec) in executors()? {
        let lines = twice(&format!("sim_run/{row}"), || {
            let run = exec.run();
            if !run.is_clean() {
                return Err(format!(
                    "sim_run/{row} does not run clean: {:?}",
                    run.errors
                ));
            }
            Ok(sorted_output(&run))
        })?;
        refs::store(&format!("sim_run/{row}.out"), &(lines.join("\n") + "\n"))?;
        println!("sim_run/{row}.out: {} lines", lines.len());
    }

    let (rows, timed_out) = twice("detect_stream corpus", || {
        let corpus = scenario_corpus(REFERENCE_SEED, PROMPT, TIMED_OUT)?;
        let timed_out = corpus.iter().filter(|c| c.timed_out).count();
        let rows: BTreeMap<u64, _> = corpus
            .iter()
            .map(|c| (c.index, verdict_of(&c.obs)))
            .collect();
        Ok((rows, timed_out))
    })?;
    refs::store("detect_stream.tsv", &refs::render_detect_tsv(&rows))?;
    println!(
        "detect_stream.tsv: {} modules, {timed_out} timeout-resolved",
        rows.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::twice;

    #[test]
    fn twice_refuses_what_does_not_repeat() {
        let mut n = 0;
        assert_eq!(twice("const", || Ok(7)), Ok(7));
        let err = twice("counter", || {
            n += 1;
            Ok(n)
        });
        assert!(err.unwrap_err().contains("does not repeat"));
        assert_eq!(
            twice::<u8>("failing", || Err("boom".into())),
            Err("boom".into())
        );
    }
}
