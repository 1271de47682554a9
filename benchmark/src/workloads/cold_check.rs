//! `cold_check`: the one-shot `parcoachc check` path in-process — source
//! text to rendered report through a fresh session every time. The
//! paper's Figure-1 quantity (analysis + check generation at compile
//! time); `front` and `ir` do most of the work, the simulator none.

use super::{compile, figure1_rows, Counts, Program, Rng};
use crate::harness::{report_failure, LayerMap, OpOut, Workload};
use crate::trace::{Tracer, OP};
use crate::{refs, span};
use parcoach_front::parse;
use std::hint::black_box;
use std::time::Instant;

pub struct ColdCheck {
    rows: Vec<String>,
    programs: Vec<Program>,
    /// `expected/cold_check/<row>.txt`, by row.
    expected: Vec<String>,
    /// Seeded visiting order of the rows within a pass.
    order: Vec<usize>,
    /// Counts of each row's latest check.
    counts: Vec<Counts>,
}

/// Rendered report of one cold check, with the program's counts. The
/// pipeline's products are dropped inside the op, under their own span:
/// a one-shot process pays for that too.
pub fn check_once(p: &Program, tr: &mut Tracer) -> Result<(String, Counts), String> {
    let c = compile(&p.file, &p.source, tr)?;
    let rendered = span!(tr, "core.render", c.report.render(&c.unit.source_map));
    let counts = Counts::of(p, &c);
    span!(tr, "drop", drop(c));
    Ok((rendered, counts))
}

impl ColdCheck {
    pub fn set_up(seed: u64) -> Result<ColdCheck, String> {
        let programs = figure1_rows()?;
        let expected = programs
            .iter()
            .map(|p| refs::load(&format!("cold_check/{}.txt", p.row)))
            .collect::<Result<_, _>>()?;
        let mut order: Vec<usize> = (0..programs.len()).collect();
        Rng::new(seed).shuffle(&mut order);
        Ok(ColdCheck {
            rows: programs.iter().map(|p| p.row.clone()).collect(),
            counts: vec![Counts::default(); programs.len()],
            programs,
            expected,
            order,
        })
    }
}

impl Workload for ColdCheck {
    fn rows(&self) -> &[String] {
        &self.rows
    }

    fn pass_len(&self) -> usize {
        self.order.len()
    }

    fn row_of(&self, i: usize) -> usize {
        self.order[i]
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> OpOut {
        let row = self.order[i];
        let s = tr.open(OP);
        let t = Instant::now();
        let result = check_once(&self.programs[row], tr);
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        tr.close(s);
        let ok = match result {
            Ok((rendered, counts)) => {
                self.counts[row] = counts;
                rendered == self.expected[row]
            }
            Err(_) => false,
        };
        if !ok {
            report_failure(|| {
                format!(
                    "cold_check {}: report differs from expected/",
                    self.rows[row]
                )
            });
        }
        OpOut { us, ok }
    }

    fn probe(&mut self, i: usize, tr: &mut Tracer) {
        let src = &self.programs[self.order[i]].source;
        black_box(span!(tr, "front.parse", parse(src)));
    }

    fn layer_metrics(&self, tr: &Tracer, out: &mut LayerMap) {
        let per_pass = Counts::sum(&self.counts);
        per_pass.report(out);
        let front_s = tr.sum_of_row_medians("front.check") / 1e6;
        if front_s > 0.0 {
            out.insert("front.lines_per_s", per_pass.lines as f64 / front_s);
        }
    }
}
