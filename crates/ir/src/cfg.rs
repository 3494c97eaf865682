//! Control-flow graphs, dominators, and natural-loop identification.
//!
//! The VEAL VM's first translation step is "simply to identify loops within
//! the program … finding strongly connected components of a control flow
//! graph is a simple linear time problem" (paper §4.1). This module provides
//! that substrate: functions made of basic blocks, a dominator analysis, and
//! natural-loop discovery used both by the static compiler (`veal-opt`) and
//! by the dynamic loop detector (`veal-vm`).

use crate::instr::Instruction;
use crate::types::BlockId;
use std::collections::BTreeSet;
use std::fmt;

/// A basic block: straight-line instructions plus successor blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BasicBlock {
    /// The instructions of the block, terminator last.
    pub instrs: Vec<Instruction>,
    /// Successor blocks, in branch order (taken first).
    pub succs: Vec<BlockId>,
}

/// A function: a CFG over [`BasicBlock`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    name: String,
    blocks: Vec<BasicBlock>,
    entry: BlockId,
    num_vregs: usize,
}

impl Function {
    /// Creates a function from raw parts (normally via
    /// [`crate::FunctionBuilder`]).
    ///
    /// # Panics
    ///
    /// Panics if `entry` or any successor id is out of range.
    #[must_use]
    pub fn new(name: String, blocks: Vec<BasicBlock>, entry: BlockId, num_vregs: usize) -> Self {
        assert!(entry.index() < blocks.len(), "entry out of range");
        for b in &blocks {
            for s in &b.succs {
                assert!(s.index() < blocks.len(), "successor out of range");
            }
        }
        Function {
            name,
            blocks,
            entry,
            num_vregs,
        }
    }

    /// The function's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry block.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Number of virtual registers the function uses.
    #[must_use]
    pub fn num_vregs(&self) -> usize {
        self.num_vregs
    }

    /// All blocks.
    #[must_use]
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Access one block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Predecessor lists for every block.
    #[must_use]
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            for &s in &b.succs {
                preds[s.index()].push(BlockId::new(i));
            }
        }
        preds
    }

    /// Reverse postorder of blocks reachable from entry.
    #[must_use]
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let n = self.blocks.len();
        let mut visited = vec![false; n];
        let mut postorder = Vec::with_capacity(n);
        // Iterative DFS with explicit stack of (block, next-succ index).
        let mut stack: Vec<(usize, usize)> = vec![(self.entry.index(), 0)];
        visited[self.entry.index()] = true;
        while let Some(&mut (b, ref mut pos)) = stack.last_mut() {
            let succs = &self.blocks[b].succs;
            if *pos < succs.len() {
                let s = succs[*pos].index();
                *pos += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                stack.pop();
                postorder.push(BlockId::new(b));
            }
        }
        postorder.reverse();
        postorder
    }

    /// Immediate dominators, indexed by block. Unreachable blocks map to
    /// `None`; the entry block dominates itself.
    ///
    /// Uses the Cooper–Harvey–Kennedy iterative algorithm.
    #[must_use]
    pub fn immediate_dominators(&self) -> Vec<Option<BlockId>> {
        let rpo = self.reverse_postorder();
        let n = self.blocks.len();
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }
        let preds = self.predecessors();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[self.entry.index()] = Some(self.entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while rpo_pos[a.index()] > rpo_pos[b.index()] {
                    a = idom[a.index()].expect("processed block has idom");
                }
                while rpo_pos[b.index()] > rpo_pos[a.index()] {
                    b = idom[b.index()].expect("processed block has idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        idom
    }

    /// Whether `a` dominates `b` (requires both reachable).
    #[must_use]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let idom = self.immediate_dominators();
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    /// Finds all natural loops: back edges `latch → header` where `header`
    /// dominates `latch`, each expanded to the set of blocks that reach the
    /// latch without passing through the header. Back edges sharing a header
    /// are merged into one loop.
    #[must_use]
    pub fn natural_loops(&self) -> Vec<NaturalLoop> {
        let idom = self.immediate_dominators();
        let preds = self.predecessors();
        let dominates = |a: BlockId, b: BlockId| -> bool {
            let mut cur = b;
            loop {
                if cur == a {
                    return true;
                }
                match idom[cur.index()] {
                    Some(d) if d != cur => cur = d,
                    _ => return false,
                }
            }
        };

        let mut loops: Vec<NaturalLoop> = Vec::new();
        for (i, b) in self.blocks.iter().enumerate() {
            let latch = BlockId::new(i);
            if idom[i].is_none() {
                continue; // unreachable
            }
            for &header in &b.succs {
                if !dominates(header, latch) {
                    continue;
                }
                // Collect the loop body by walking predecessors from the
                // latch until the header.
                let mut body: BTreeSet<BlockId> = BTreeSet::new();
                body.insert(header);
                let mut work = vec![latch];
                while let Some(x) = work.pop() {
                    if body.insert(x) {
                        for &p in &preds[x.index()] {
                            work.push(p);
                        }
                    }
                }
                if let Some(existing) = loops.iter_mut().find(|l| l.header == header) {
                    existing.blocks.extend(body.iter().copied());
                    existing.blocks.sort();
                    existing.blocks.dedup();
                    existing.latches.push(latch);
                } else {
                    loops.push(NaturalLoop {
                        header,
                        blocks: body.into_iter().collect(),
                        latches: vec![latch],
                    });
                }
            }
        }
        loops
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fn {} (entry {}):", self.name, self.entry)?;
        for (i, b) in self.blocks.iter().enumerate() {
            write!(f, "{}:", BlockId::new(i))?;
            if !b.succs.is_empty() {
                write!(f, "  -> ")?;
                for (j, s) in b.succs.iter().enumerate() {
                    if j > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}")?;
                }
            }
            writeln!(f)?;
            for instr in &b.instrs {
                writeln!(f, "    {instr}")?;
            }
        }
        Ok(())
    }
}

/// A natural loop discovered in a [`Function`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (the unique entry block).
    pub header: BlockId,
    /// All blocks of the loop, sorted, header included.
    pub blocks: Vec<BlockId>,
    /// The latch blocks (sources of back edges).
    pub latches: Vec<BlockId>,
}

impl NaturalLoop {
    /// Whether this loop contains `block`.
    #[must_use]
    pub fn contains(&self, block: BlockId) -> bool {
        self.blocks.binary_search(&block).is_ok()
    }

    /// Whether this loop is nested strictly inside `other`.
    #[must_use]
    pub fn nested_in(&self, other: &NaturalLoop) -> bool {
        self.header != other.header && self.blocks.iter().all(|b| other.contains(*b))
    }

    /// Whether this is an innermost loop among `all` (contains no other
    /// loop).
    #[must_use]
    pub fn is_innermost(&self, all: &[NaturalLoop]) -> bool {
        !all.iter().any(|l| l.nested_in(self))
    }

    /// The blocks inside the loop that have a successor outside it — the
    /// loop's exit blocks. A single-exit loop (exit == latch == the block
    /// with the back branch) is the modulo-schedulable shape.
    #[must_use]
    pub fn exit_blocks(&self, f: &Function) -> Vec<BlockId> {
        self.blocks
            .iter()
            .copied()
            .filter(|&b| f.block(b).succs.iter().any(|s| !self.contains(*s)))
            .collect()
    }
}

/// A program: a set of functions callable by id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The functions, indexed by [`crate::FuncId`].
    pub functions: Vec<Function>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    /// entry -> header -> body -> header (loop), header -> exit
    fn diamond_loop() -> Function {
        let mut fb = FunctionBuilder::new("loopy");
        let entry = fb.block();
        let header = fb.block();
        let body = fb.block();
        let exit = fb.block();
        fb.set_entry(entry);
        fb.branch(entry, header);
        let c = fb.fresh_reg();
        fb.cond_branch(header, c, body, exit);
        fb.branch(body, header);
        fb.ret(exit, None);
        fb.finish()
    }

    #[test]
    fn rpo_starts_at_entry() {
        let f = diamond_loop();
        let rpo = f.reverse_postorder();
        assert_eq!(rpo[0], f.entry());
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn idom_chain() {
        let f = diamond_loop();
        let idom = f.immediate_dominators();
        assert_eq!(idom[0], Some(BlockId::new(0)));
        assert_eq!(idom[1], Some(BlockId::new(0)));
        assert_eq!(idom[2], Some(BlockId::new(1)));
        assert_eq!(idom[3], Some(BlockId::new(1)));
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let f = diamond_loop();
        assert!(f.dominates(BlockId::new(0), BlockId::new(0)));
        assert!(f.dominates(BlockId::new(0), BlockId::new(3)));
        assert!(f.dominates(BlockId::new(1), BlockId::new(2)));
        assert!(!f.dominates(BlockId::new(2), BlockId::new(3)));
    }

    #[test]
    fn natural_loop_found() {
        let f = diamond_loop();
        let loops = f.natural_loops();
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, BlockId::new(1));
        assert!(l.contains(BlockId::new(2)));
        assert!(!l.contains(BlockId::new(3)));
        assert_eq!(l.latches, vec![BlockId::new(2)]);
        assert!(l.is_innermost(&loops));
    }

    #[test]
    fn exit_blocks_of_simple_loop() {
        let f = diamond_loop();
        let loops = f.natural_loops();
        assert_eq!(loops[0].exit_blocks(&f), vec![BlockId::new(1)]);
    }

    fn nested_loops() -> Function {
        // entry -> oh(outer header) -> ih(inner header) -> ib -> ih,
        // ih -> ol(outer latch) -> oh, oh -> exit
        let mut fb = FunctionBuilder::new("nested");
        let entry = fb.block();
        let oh = fb.block();
        let ih = fb.block();
        let ib = fb.block();
        let ol = fb.block();
        let exit = fb.block();
        fb.set_entry(entry);
        fb.branch(entry, oh);
        let c1 = fb.fresh_reg();
        fb.cond_branch(oh, c1, ih, exit);
        let c2 = fb.fresh_reg();
        fb.cond_branch(ih, c2, ib, ol);
        fb.branch(ib, ih);
        fb.branch(ol, oh);
        fb.ret(exit, None);
        fb.finish()
    }

    #[test]
    fn nested_loop_structure() {
        let f = nested_loops();
        let loops = f.natural_loops();
        assert_eq!(loops.len(), 2);
        let inner = loops.iter().find(|l| l.header == BlockId::new(2)).unwrap();
        let outer = loops.iter().find(|l| l.header == BlockId::new(1)).unwrap();
        assert!(inner.nested_in(outer));
        assert!(!outer.nested_in(inner));
        assert!(inner.is_innermost(&loops));
        assert!(!outer.is_innermost(&loops));
    }

    #[test]
    fn unreachable_block_has_no_idom() {
        let mut fb = FunctionBuilder::new("unreach");
        let entry = fb.block();
        let dead = fb.block();
        fb.set_entry(entry);
        fb.ret(entry, None);
        fb.ret(dead, None);
        let f = fb.finish();
        let idom = f.immediate_dominators();
        assert_eq!(idom[dead.index()], None);
    }

    #[test]
    fn two_latches_merge_into_one_loop() {
        // header with two distinct back-edge sources.
        let mut fb = FunctionBuilder::new("two_latch");
        let entry = fb.block();
        let header = fb.block();
        let a = fb.block();
        let b = fb.block();
        let exit = fb.block();
        fb.set_entry(entry);
        fb.branch(entry, header);
        let c1 = fb.fresh_reg();
        fb.cond_branch(header, c1, a, b);
        let c2 = fb.fresh_reg();
        fb.cond_branch(a, c2, header, exit);
        fb.branch(b, header);
        fb.ret(exit, None);
        let f = fb.finish();
        let loops = f.natural_loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].latches.len(), 2);
        assert!(loops[0].contains(a));
        assert!(loops[0].contains(b));
    }

    #[test]
    fn display_contains_blocks() {
        let f = diamond_loop();
        let s = f.to_string();
        assert!(s.contains("fn loopy"));
        assert!(s.contains("bb1"));
    }
}
