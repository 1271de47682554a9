//! # parcoach-front — MiniHPC frontend
//!
//! The frontend substrate for the PARCOACH-hybrid reproduction: a small
//! imperative language ("MiniHPC") able to express the hybrid MPI+OpenMP
//! programs the paper validates. OpenMP constructs (`parallel`, `single`,
//! `master`, `critical`, `barrier`, `pfor`, `sections`) are first-class
//! structured statements — semantically the same as pragmas over
//! structured blocks, producing the same control-flow graphs. MPI
//! operations are builtin calls (`MPI_Barrier()`, `MPI_Allreduce(x, SUM)`,
//! …).
//!
//! Pipeline: [`parse`] → [`sema::check_program`] → (then `parcoach-ir`
//! lowers to a CFG).
//!
//! ```
//! use parcoach_front::parse_and_check;
//!
//! let src = r#"
//!     fn main() {
//!         MPI_Init();
//!         parallel num_threads(4) {
//!             single { MPI_Barrier(); }
//!         }
//!         MPI_Finalize();
//!     }
//! "#;
//! let unit = parse_and_check("demo.mh", src).expect("valid program");
//! assert_eq!(unit.program.functions.len(), 1);
//! ```

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod pretty;
mod scope;
pub mod sema;
pub mod span;
pub mod symbol;
pub mod token;

pub use ast::{
    BinOp, Block, CollectiveKind, Expr, ExprId, ExprKind, ExprRange, Function, Ident, Intrinsic,
    LValue, MpiOp, OmpStmt, Operand, Param, Program, ReduceOp, Role, Stmt, StmtKind, StmtRange,
    ThreadLevel, Type, UnOp,
};
pub use diag::{Diagnostic, Diagnostics, Severity};
pub use span::{LineCol, SourceMap, Span};
pub use symbol::{Interner, Symbol};

/// A fully parsed and semantically checked compilation unit.
#[derive(Debug, Clone)]
pub struct CheckedUnit {
    /// The AST, with the interner its symbols (and `signatures`' keys)
    /// belong to.
    pub program: Program,
    /// Source map for rendering locations.
    pub source_map: SourceMap,
    /// Function signatures.
    pub signatures: sema::Signatures,
    /// Non-error diagnostics produced along the way.
    pub warnings: Diagnostics,
}

/// Parse and semantically check a program in one call.
///
/// On failure returns the full diagnostics (errors and warnings) plus the
/// source map needed to render them.
pub fn parse_and_check(name: &str, src: &str) -> Result<CheckedUnit, (Diagnostics, SourceMap)> {
    let (mut program, mut diags, source_map) = parser::parse_source(name, src);
    let signatures = if diags.has_errors() {
        Default::default()
    } else {
        sema::check_program(&mut program, &mut diags)
    };
    if diags.has_errors() {
        Err((diags, source_map))
    } else {
        Ok(CheckedUnit {
            program,
            source_map,
            signatures,
            warnings: diags,
        })
    }
}

/// Parse only (no sema); used by tools that want partial ASTs.
pub fn parse(src: &str) -> (Program, Diagnostics) {
    parser::parse_program(src)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_check_ok() {
        let unit = parse_and_check("t.mh", "fn main() { let x = 1; }").unwrap();
        assert!(unit.warnings.is_empty());
        let main = unit.program.interner.get("main").expect("interned");
        assert!(unit.signatures.get(main).is_some());
    }

    #[test]
    fn parse_and_check_parse_error() {
        let err = parse_and_check("t.mh", "fn main( { }").unwrap_err();
        assert!(err.0.has_errors());
    }

    #[test]
    fn parse_and_check_sema_error() {
        let err = parse_and_check("t.mh", "fn main() { undeclared = 3; }").unwrap_err();
        assert!(err.0.has_errors());
        assert!(err.0.iter().any(|d| d.code == "undeclared-variable"));
    }
}
