//! Property test: expressions that mix every binary operator, both unary
//! operators, parentheses, indexing and calls parse to the tree they
//! were generated from, whatever parentheses the source spells out.
//!
//! Each case draws a random expression tree, writes it as source with
//! the parentheses precedence needs (plus some it does not), parses it
//! and compares the parse's fully parenthesized `pretty` text with the
//! tree's. The first [`CASES`] texts are also folded into a fingerprint
//! pinned when the parser still had one function per precedence level,
//! so the single precedence loop is held to that parser's exact output.

use parcoach_front::parser::parse_program;
use parcoach_front::pretty::pretty_program;
use parcoach_testutil::{case_budget, Rng};

/// Cases folded into the pinned fingerprint; `PARCOACH_PROP_BUDGET`
/// scales how many more are checked against their own tree.
const CASES: u64 = 512;

/// FNV-1a of the first [`CASES`] parses' `pretty` text, computed on the
/// parser with five precedence functions (`or_expr` … `mul_expr`).
const PINNED_PARSE_FINGERPRINT: u64 = 7_263_977_599_990_269_894;

/// A generated expression.
enum Node {
    /// A literal or a variable, as source text.
    Leaf(String),
    /// `-e` or `!e`.
    Unary(char, Box<Node>),
    /// `l op r`, with the operator's precedence level.
    Binary(&'static str, u8, Box<Node>, Box<Node>),
    /// `a[e]`.
    Index(&'static str, Box<Node>),
    /// `f(e, …)`.
    Call(&'static str, Vec<Node>),
}

/// Every binary operator with its level: `||` binds loosest, `* / %`
/// tightest; comparisons (level 2) do not associate.
const BINARY: [(&str, u8); 13] = [
    ("||", 0),
    ("&&", 1),
    ("==", 2),
    ("!=", 2),
    ("<", 2),
    ("<=", 2),
    (">", 2),
    (">=", 2),
    ("+", 3),
    ("-", 3),
    ("*", 4),
    ("/", 4),
    ("%", 4),
];

/// Names indexed and called.
const ARRAYS: [&str; 2] = ["arr", "v"];
const FUNCTIONS: [&str; 2] = ["f", "g"];

const CMP: u8 = 2;
/// Level of anything that is not a binary operation.
const ATOM: u8 = 5;

fn random_node(rng: &mut Rng, depth: u32) -> Node {
    if depth == 0 || rng.below(5) == 0 {
        return match rng.below(4) {
            0 => Node::Leaf(rng.below(100).to_string()),
            1 => Node::Leaf(if rng.bool() { "true" } else { "false" }.to_string()),
            _ => Node::Leaf(rng.pick(&["a", "b", "c", "x", "y"]).to_string()),
        };
    }
    match rng.pick_weighted(&[8, 2, 1, 1]) {
        0 => {
            let (op, level) = *rng.pick(&BINARY);
            let l = random_node(rng, depth - 1);
            let r = random_node(rng, depth - 1);
            Node::Binary(op, level, Box::new(l), Box::new(r))
        }
        1 => {
            let op = if rng.bool() { '-' } else { '!' };
            Node::Unary(op, Box::new(random_node(rng, depth - 1)))
        }
        2 => Node::Index(
            ARRAYS[rng.below(ARRAYS.len())],
            Box::new(random_node(rng, depth - 1)),
        ),
        _ => {
            let n = rng.below(3);
            let args = (0..n).map(|_| random_node(rng, depth - 1)).collect();
            Node::Call(FUNCTIONS[rng.below(FUNCTIONS.len())], args)
        }
    }
}

fn level(n: &Node) -> u8 {
    match n {
        Node::Binary(_, level, ..) => *level,
        _ => ATOM,
    }
}

/// `n` as source: parentheses where precedence or associativity needs
/// them, and around one subexpression in eight where it does not.
fn source(n: &Node, rng: &mut Rng) -> String {
    let text = match n {
        Node::Leaf(t) => t.clone(),
        Node::Unary(op, e) => {
            let inner = source(e, rng);
            if level(e) < ATOM {
                format!("{op}({inner})")
            } else {
                format!("{op}{inner}")
            }
        }
        Node::Binary(op, lv, l, r) => {
            // Left-associative levels keep a same-level left operand
            // bare; a comparison operand that is itself a comparison is
            // always parenthesized.
            let wrap_l = level(l) < *lv || (level(l) == CMP && *lv == CMP);
            let wrap_r = level(r) <= *lv;
            let (ls, rs) = (source(l, rng), source(r, rng));
            let ls = if wrap_l { format!("({ls})") } else { ls };
            let rs = if wrap_r { format!("({rs})") } else { rs };
            format!("{ls} {op} {rs}")
        }
        Node::Index(a, e) => format!("{a}[{}]", source(e, rng)),
        Node::Call(f, args) => {
            let args: Vec<String> = args.iter().map(|a| source(a, rng)).collect();
            format!("{f}({})", args.join(", "))
        }
    };
    if rng.below(8) == 0 {
        format!("({text})")
    } else {
        text
    }
}

/// `n` as the pretty-printer writes a parsed tree: every binary
/// operation parenthesized, every unary operand too.
fn pretty(n: &Node) -> String {
    match n {
        Node::Leaf(t) => t.clone(),
        Node::Unary(op, e) => format!("{op}({})", pretty(e)),
        Node::Binary(op, _, l, r) => format!("({} {op} {})", pretty(l), pretty(r)),
        Node::Index(a, e) => format!("{a}[{}]", pretty(e)),
        Node::Call(f, args) => {
            let args: Vec<String> = args.iter().map(pretty).collect();
            format!("{f}({})", args.join(", "))
        }
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn mixed_operator_expressions_parse_to_their_tree() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for seed in 0..case_budget(CASES).max(CASES) {
        let mut rng = Rng::new(seed);
        let tree = random_node(&mut rng, 6);
        let src = format!("fn main() {{ let v = {}; }}", source(&tree, &mut rng));
        let (prog, diags) = parse_program(&src);
        assert!(!diags.has_errors(), "seed {seed}: {src}\n{diags:?}");
        let printed = pretty_program(&prog);
        let want = format!("fn main() {{\n    let v = {};\n}}\n", pretty(&tree));
        assert_eq!(printed, want, "seed {seed}: {src}");
        if seed < CASES {
            fnv1a(&mut h, printed.as_bytes());
        }
    }
    assert_eq!(
        h, PINNED_PARSE_FINGERPRINT,
        "the parse of the pinned cases changed"
    );
}
