//! Back-end stand-in: linearization + linear-scan register allocation.
//!
//! A real compiler spends much of its time after the middle end —
//! instruction selection, register allocation, scheduling, emission.
//! This pass provides that cost (and its classic algorithm) honestly:
//! the CFG is linearized in reverse post-order, virtual registers get
//! live intervals, and a linear-scan allocator maps them onto `K`
//! physical registers with spill slots. The result is only used for its
//! invariants (and by the Figure-1 baseline pipeline); we do not emit
//! actual machine code.

use crate::opt::liveness::liveness;
use crate::opt::usedef::{directive_defs, directive_uses, instr_uses, term_uses};
use parcoach_ir::graph::reverse_post_order;
use parcoach_ir::{FuncIr, Reg};
use std::collections::HashMap;

/// Where a virtual register lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// Physical register index `0..K`.
    Phys(u8),
    /// Stack spill slot.
    Spill(u32),
}

/// Live interval of one virtual register over the linearized function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Virtual register.
    pub reg: Reg,
    /// First point (linear index) where the register is live.
    pub start: u32,
    /// Last point where it is live (inclusive).
    pub end: u32,
}

/// Result of register allocation for one function.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Location per virtual register (registers never used are absent).
    pub locations: HashMap<Reg, Location>,
    /// Number of spill slots used.
    pub spill_slots: u32,
    /// The intervals that were allocated (sorted by start).
    pub intervals: Vec<Interval>,
}

/// Number of physical registers modelled (x86-64-ish general purpose
/// count after reservations).
pub const PHYS_REGS: u8 = 12;

/// Allocate registers for `f` with the classic linear-scan algorithm
/// (Poletto & Sarkar).
pub fn allocate(f: &FuncIr) -> Allocation {
    let intervals = build_intervals(f);
    let mut locations: HashMap<Reg, Location> = HashMap::new();
    // Active intervals sorted by end point.
    let mut active: Vec<(Interval, u8)> = Vec::new();
    let mut free: Vec<u8> = (0..PHYS_REGS).rev().collect();
    let mut spills = 0u32;

    for iv in &intervals {
        // Expire old intervals.
        active.retain(|(a, phys)| {
            if a.end < iv.start {
                free.push(*phys);
                false
            } else {
                true
            }
        });
        if let Some(phys) = free.pop() {
            locations.insert(iv.reg, Location::Phys(phys));
            active.push((*iv, phys));
            active.sort_by_key(|(a, _)| a.end);
        } else {
            // Spill the interval that ends last (it blocks the register
            // longest).
            let (last, last_phys) = *active.last().expect("active non-empty when no free reg");
            if last.end > iv.end {
                // Steal its register.
                locations.insert(last.reg, Location::Spill(spills));
                spills += 1;
                locations.insert(iv.reg, Location::Phys(last_phys));
                active.pop();
                active.push((*iv, last_phys));
                active.sort_by_key(|(a, _)| a.end);
            } else {
                locations.insert(iv.reg, Location::Spill(spills));
                spills += 1;
            }
        }
    }
    Allocation {
        locations,
        spill_slots: spills,
        intervals,
    }
}

/// Build sorted live intervals from per-block liveness + linear order.
fn build_intervals(f: &FuncIr) -> Vec<Interval> {
    let lv = liveness(f);
    let order = reverse_post_order(f);
    let nr = f.reg_types.len();
    let mut start = vec![u32::MAX; nr];
    let mut end = vec![0u32; nr];
    let mut point = 0u32;
    let touch = |r: usize, point: u32, start: &mut Vec<u32>, end: &mut Vec<u32>| {
        if start[r] == u32::MAX {
            start[r] = point;
        }
        start[r] = start[r].min(point);
        end[r] = end[r].max(point);
    };
    for &b in &order {
        let bi = b.index();
        let block_start = point;
        // Everything live-in exists at the block start.
        for r in lv.live_in[bi].iter() {
            touch(r, block_start, &mut start, &mut end);
        }
        let blk = f.block(b);
        for r in directive_uses(blk).into_iter().chain(directive_defs(blk)) {
            touch(r.index(), point, &mut start, &mut end);
        }
        for (i, _) in f.instrs(b) {
            point += 1;
            for u in instr_uses(i) {
                touch(u.index(), point, &mut start, &mut end);
            }
            if let Some(d) = i.dest() {
                touch(d.index(), point, &mut start, &mut end);
            }
        }
        point += 1;
        for u in term_uses(&blk.term) {
            touch(u.index(), point, &mut start, &mut end);
        }
        // Everything live-out survives to the block end.
        for r in lv.live_out[bi].iter() {
            touch(r, point, &mut start, &mut end);
        }
        point += 1;
    }
    let mut out: Vec<Interval> = (0..nr)
        .filter(|&r| start[r] != u32::MAX)
        .map(|r| Interval {
            reg: Reg(r as u32),
            start: start[r],
            end: end[r],
        })
        .collect();
    out.sort_by_key(|iv| (iv.start, iv.end));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;

    fn func(src: &str) -> FuncIr {
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        m.main().unwrap().clone()
    }

    #[test]
    fn small_function_no_spills() {
        let f = func("fn main() { let a = 1; let b = a + 2; print(b); }");
        let alloc = allocate(&f);
        assert_eq!(alloc.spill_slots, 0);
        assert!(!alloc.locations.is_empty());
    }

    #[test]
    fn no_two_live_intervals_share_a_register() {
        let f = func(
            "fn main() {
                let a = 1; let b = 2; let c = 3; let d = 4;
                let e = a + b; let g = c + d;
                print(a, b, c, d, e, g);
            }",
        );
        let alloc = allocate(&f);
        // Overlapping intervals must not share a physical register.
        for (i, x) in alloc.intervals.iter().enumerate() {
            for y in alloc.intervals.iter().skip(i + 1) {
                let overlap = x.start <= y.end && y.start <= x.end;
                if !overlap {
                    continue;
                }
                if let (Some(Location::Phys(px)), Some(Location::Phys(py))) =
                    (alloc.locations.get(&x.reg), alloc.locations.get(&y.reg))
                {
                    assert!(
                        px != py,
                        "{:?} and {:?} overlap but share phys reg {px}",
                        x,
                        y
                    );
                }
            }
        }
    }

    #[test]
    fn high_pressure_spills() {
        // More than PHYS_REGS simultaneously-live values.
        let mut body = String::new();
        let n = PHYS_REGS as usize + 6;
        for i in 0..n {
            body.push_str(&format!("let v{i} = {i} + rank();\n"));
        }
        body.push_str("print(");
        body.push_str(
            &(0..n)
                .map(|i| format!("v{i}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        body.push_str(");");
        let f = func(&format!("fn main() {{ {body} }}"));
        let alloc = allocate(&f);
        assert!(alloc.spill_slots > 0, "expected spills, got {alloc:?}");
    }

    #[test]
    fn intervals_sorted_and_sane() {
        let f = func("fn main() { let i = 0; while (i < 5) { i = i + 1; } print(i); }");
        let alloc = allocate(&f);
        let mut prev = 0;
        for iv in &alloc.intervals {
            assert!(iv.start <= iv.end);
            assert!(iv.start >= prev);
            prev = iv.start;
        }
    }
}
