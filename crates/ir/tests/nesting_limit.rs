//! `parser::MAX_NESTING` was chosen so that everything that recurses
//! over the AST fits a spawned thread's default 2 MiB stack in a debug
//! build. This runs that pipeline — parse, sema, lower, verify, pretty,
//! clone, drop — on the deepest program of each shape the parser
//! accepts, on a 1.5 MiB stack: an overflow aborts the test binary, so
//! raising the limit (or fattening a recursive frame) past the measured
//! headroom fails loudly here instead of in a daemon worker.

use parcoach_front::parser::{parse_program, MAX_NESTING};
use parcoach_front::pretty::pretty_program;
use parcoach_front::sema::check_program;
use parcoach_ir::lower::lower_program;
use parcoach_ir::verify_module;

fn deepest_programs() -> Vec<String> {
    // A few levels go to the function body, the statement's own
    // expression and the innermost leaf.
    let n = MAX_NESTING as usize - 4;
    let nest = |open: &str, close: &str| format!("{}{}", open.repeat(n), close.repeat(n));
    vec![
        format!(
            "fn main() {{ let x = {}1{}; }}",
            "(".repeat(n),
            ")".repeat(n)
        ),
        format!("fn main() {{ let x = {}1; }}", "-".repeat(n)),
        format!("fn main() {{ let x = 1{}; }}", " + 1".repeat(n)),
        format!(
            "fn f(a: int) -> int {{ return a; }} fn main() {{ let x = {}1{}; }}",
            "f(".repeat(n),
            ")".repeat(n)
        ),
        format!("fn main() {{ {} }}", nest("if (true) {", "}")),
        format!("fn main() {{ {} }}", nest("while (false) {", "}")),
        format!("fn main() {{ {} }}", nest("parallel {", "}")),
        format!(
            "fn main() {{ if (true) {{ }} {} }}",
            "else if (true) { }".repeat(n)
        ),
    ]
}

#[test]
fn pipeline_at_the_nesting_limit_fits_a_worker_stack() {
    std::thread::Builder::new()
        .stack_size(1536 * 1024)
        .spawn(|| {
            for src in deepest_programs() {
                let head = &src[..src.len().min(60)];
                let (prog, mut diags) = parse_program(&src);
                assert!(!diags.has_errors(), "{head}…: {:?}", diags.iter().next());
                let sema = check_program(&prog, &mut diags);
                assert!(!diags.has_errors(), "{head}…: {:?}", diags.iter().next());
                let module = lower_program(&prog, &sema.signatures);
                assert!(verify_module(&module).is_empty(), "{head}…");
                assert!(!pretty_program(&prog).is_empty());
                drop(prog.clone());
            }
        })
        .expect("spawn")
        .join()
        .expect("pipeline panicked");
}
