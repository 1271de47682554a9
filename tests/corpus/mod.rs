//! The corpus the static phase's pins run over (`report_pin`,
//! `instrument_sharing`, `warning_positions`).

use parcoach::workloads::{error_catalogue, figure1_suite, WorkloadClass};
use parcoach_testutil::Scenario;

/// Catalogue cases, the Figure-1 programs of every class and 300 seeded
/// scenario modules.
pub fn corpus() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = error_catalogue()
        .into_iter()
        .map(|c| (format!("catalogue/{}", c.id), c.source))
        .collect();
    for class in [WorkloadClass::A, WorkloadClass::B, WorkloadClass::C] {
        out.extend(
            figure1_suite(class)
                .into_iter()
                .map(|w| (format!("figure1/{}/{class:?}", w.name), w.source)),
        );
    }
    out.extend((0..300).map(|seed| {
        (
            format!("scenario/{seed}"),
            Scenario::generate(seed).render(),
        )
    }));
    out
}
