//! Control-flow graph lowering for DSL workloads.
//!
//! Each workload body becomes a per-rank CFG: straight-line statements
//! accumulate into basic blocks, `barrier` statements split blocks (they
//! delimit the epochs the race detector reasons about), `repeat` blocks
//! become loop-head nodes with a back edge and a known trip count, and
//! `onrank` blocks become rank-guard branch nodes. Campaign jobs are
//! parallel roots: every unit's CFG hangs off the virtual campaign root
//! in the rendered graph.
//!
//! The CFG is consumed by two clients:
//!
//! * the crate-private abstract interpreter (`absint`), which runs a
//!   fixed-point analysis over the graph (loop heads carry their trip
//!   counts so cursor evolution can be closed over `k` iterations), and
//! * external tooling via `pioeval lint --cfg-out` ([`ProgramCfg::to_dot`]
//!   / [`ProgramCfg::to_json`]), e.g. a fuzzer choosing which paths to
//!   mutate.
//!
//! Reachability over the graph yields the `PIO022` dead-code diagnostic:
//! a `repeat 0` head has no edge into its body, so the body subgraph is
//! unreachable from the entry node.

use pioeval_obs::export::esc;
use pioeval_workloads::dsl::{CampaignDecl, DslProgram, DslWorkload, Stmt, StmtKind};

/// What a [`Block`] is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockKind {
    /// The unique entry node.
    Entry,
    /// The unique exit node.
    Exit,
    /// A straight-line basic block (holds the statements).
    Body,
    /// A `barrier` statement: splits blocks, increments the epoch.
    Barrier {
        /// Source line of the `barrier`.
        line: u32,
    },
    /// A `repeat` loop head with a known trip count.
    LoopHead {
        /// Number of iterations.
        trips: u64,
        /// Source line of the `repeat`.
        line: u32,
        /// Entry block of the loop body.
        body: usize,
        /// The block execution continues at after the loop.
        follow: usize,
    },
    /// An `onrank` guard: the body executes only on one rank.
    RankGuard {
        /// The guarded rank.
        rank: u32,
        /// Source line of the `onrank`.
        line: u32,
        /// Entry block of the guarded body.
        body: usize,
        /// Join node where the taken and skip paths meet.
        join: usize,
    },
    /// The join node closing a rank guard.
    Join,
}

/// One CFG node.
#[derive(Clone, Debug)]
pub struct Block {
    /// Node kind.
    pub kind: BlockKind,
    /// Statements, for [`BlockKind::Body`] blocks (empty otherwise).
    pub stmts: Vec<Stmt>,
    /// Successor block ids.
    pub succ: Vec<usize>,
    /// Predecessor block ids.
    pub pred: Vec<usize>,
    /// Ranks of the enclosing `onrank` guards, outermost first.
    pub guards: Vec<u32>,
}

/// The CFG of one workload body (a "unit": a `workload` block or main).
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Unit name (`main` or the workload block name).
    pub name: String,
    /// All blocks; ids index this vector.
    pub blocks: Vec<Block>,
    /// Id of the [`BlockKind::Entry`] block.
    pub entry: usize,
    /// Id of the [`BlockKind::Exit`] block.
    pub exit: usize,
}

/// A program's CFGs plus the campaign fan-out.
#[derive(Clone, Debug)]
pub struct ProgramCfg {
    /// One CFG per unit: workload blocks in declaration order, then
    /// `main` if present.
    pub units: Vec<Cfg>,
    /// Campaign jobs as `(workload, ranks, line)` — the parallel roots.
    pub jobs: Vec<(String, u32, u32)>,
}

struct Lowerer {
    blocks: Vec<Block>,
}

impl Lowerer {
    fn block(&mut self, kind: BlockKind, guards: Vec<u32>) -> usize {
        self.blocks.push(Block {
            kind,
            stmts: Vec::new(),
            succ: Vec::new(),
            pred: Vec::new(),
            guards,
        });
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.blocks[from].succ.push(to);
        self.blocks[to].pred.push(from);
    }

    /// Lower a statement sequence into a chain of blocks; returns the
    /// (entry, tail) block ids. The tail is always a `Body` block.
    fn seq(&mut self, stmts: &[Stmt], guards: &[u32]) -> (usize, usize) {
        let entry = self.block(BlockKind::Body, guards.to_vec());
        let mut cur = entry;
        for s in stmts {
            match &s.kind {
                StmtKind::Meta(..) | StmtKind::Data { .. } | StmtKind::Compute(_) => {
                    self.blocks[cur].stmts.push(s.clone());
                }
                StmtKind::Barrier => {
                    let b = self.block(BlockKind::Barrier { line: s.line }, guards.to_vec());
                    self.edge(cur, b);
                    cur = self.block(BlockKind::Body, guards.to_vec());
                    self.edge(b, cur);
                }
                StmtKind::Repeat(n, inner) => {
                    let head = self.block(
                        BlockKind::LoopHead {
                            trips: *n,
                            line: s.line,
                            body: 0,   // patched below
                            follow: 0, // patched below
                        },
                        guards.to_vec(),
                    );
                    self.edge(cur, head);
                    let (bentry, btail) = self.seq(inner, guards);
                    if *n > 0 {
                        self.edge(head, bentry);
                    }
                    self.edge(btail, head); // back edge
                    let follow = self.block(BlockKind::Body, guards.to_vec());
                    self.edge(head, follow);
                    if let BlockKind::LoopHead {
                        body, follow: f, ..
                    } = &mut self.blocks[head].kind
                    {
                        *body = bentry;
                        *f = follow;
                    }
                    cur = follow;
                }
                StmtKind::OnRank(r, inner) => {
                    let guard = self.block(
                        BlockKind::RankGuard {
                            rank: *r,
                            line: s.line,
                            body: 0, // patched below
                            join: 0, // patched below
                        },
                        guards.to_vec(),
                    );
                    self.edge(cur, guard);
                    let mut inner_guards = guards.to_vec();
                    inner_guards.push(*r);
                    let (bentry, btail) = self.seq(inner, &inner_guards);
                    self.edge(guard, bentry);
                    let join = self.block(BlockKind::Join, guards.to_vec());
                    self.edge(btail, join);
                    self.edge(guard, join); // skip path (rank != r)
                    if let BlockKind::RankGuard { body, join: j, .. } = &mut self.blocks[guard].kind
                    {
                        *body = bentry;
                        *j = join;
                    }
                    cur = self.block(BlockKind::Body, guards.to_vec());
                    let after = cur;
                    self.edge(join, after);
                }
            }
        }
        (entry, cur)
    }
}

/// Lower one workload body into a CFG.
pub fn lower_workload(name: &str, w: &DslWorkload) -> Cfg {
    let mut l = Lowerer { blocks: Vec::new() };
    let entry = l.block(BlockKind::Entry, Vec::new());
    let (bentry, btail) = l.seq(&w.body, &[]);
    l.edge(entry, bentry);
    let exit = l.block(BlockKind::Exit, Vec::new());
    l.edge(btail, exit);
    Cfg {
        name: name.to_string(),
        blocks: l.blocks,
        entry,
        exit,
    }
}

/// Lower every unit of a program, recording campaign jobs as roots.
pub fn lower_program(p: &DslProgram) -> ProgramCfg {
    let mut units = Vec::new();
    for (name, w) in &p.workloads {
        units.push(lower_workload(name, w));
    }
    if let Some(main) = &p.main {
        units.push(lower_workload("main", main));
    }
    let jobs = match &p.campaign {
        Some(CampaignDecl { jobs, .. }) => jobs
            .iter()
            .map(|j| (j.workload.clone(), j.ranks, j.line))
            .collect(),
        None => Vec::new(),
    };
    ProgramCfg { units, jobs }
}

impl Cfg {
    /// Block ids reachable from the entry node.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry];
        seen[self.entry] = true;
        while let Some(b) = stack.pop() {
            for &s in &self.blocks[b].succ {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Roots of unreachable regions: unreachable blocks none of whose
    /// predecessors is unreachable (so nested dead blocks report once),
    /// paired with the smallest source line in the region. Regions with
    /// no lines at all (empty bodies) are skipped.
    pub fn unreachable_regions(&self) -> Vec<(usize, u32)> {
        let seen = self.reachable();
        let mut out = Vec::new();
        for (id, b) in self.blocks.iter().enumerate() {
            if seen[id] || b.pred.iter().any(|&p| !seen[p]) {
                continue;
            }
            if let Some(line) = self.first_line_from(id, &seen) {
                out.push((id, line));
            }
        }
        out
    }

    /// Smallest source line in the unreachable region rooted at `root`.
    fn first_line_from(&self, root: usize, reachable: &[bool]) -> Option<u32> {
        let mut best: Option<u32> = None;
        let mut stack = vec![root];
        let mut visited = vec![false; self.blocks.len()];
        visited[root] = true;
        while let Some(id) = stack.pop() {
            let b = &self.blocks[id];
            let mut fold = |l: u32| best = Some(best.map_or(l, |b: u32| b.min(l)));
            match b.kind {
                BlockKind::Barrier { line }
                | BlockKind::LoopHead { line, .. }
                | BlockKind::RankGuard { line, .. } => fold(line),
                _ => {}
            }
            for s in &b.stmts {
                fold(s.line);
            }
            for &s in &b.succ {
                if !visited[s] && !reachable[s] {
                    visited[s] = true;
                    stack.push(s);
                }
            }
        }
        best
    }
}

/// Render a statement back to (normalized) DSL text for CFG dumps.
pub fn stmt_text(s: &Stmt) -> String {
    match &s.kind {
        StmtKind::Meta(op, f) => format!("{} {f}", format!("{op:?}").to_lowercase()),
        StmtKind::Data {
            kind,
            file,
            size,
            count,
            random,
            at,
        } => {
            let verb = match (kind, at) {
                (pioeval_types::IoKind::Write, None) => "write",
                (pioeval_types::IoKind::Read, None) => "read",
                (pioeval_types::IoKind::Write, Some(_)) => "writeat",
                (pioeval_types::IoKind::Read, Some(_)) => "readat",
            };
            let mut out = format!("{verb} {file}");
            if let Some(at) = at {
                out.push_str(&format!(" {at}"));
            }
            out.push_str(&format!(" {size}"));
            if *count != 1 {
                out.push_str(&format!(" x{count}"));
            }
            if *random {
                out.push_str(" random");
            }
            out
        }
        StmtKind::Compute(d) => format!("compute {}ns", d.as_nanos()),
        StmtKind::Barrier => "barrier".into(),
        StmtKind::Repeat(n, _) => format!("repeat {n}"),
        StmtKind::OnRank(r, _) => format!("onrank {r}"),
    }
}

/// Escape a Graphviz dot string label.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl ProgramCfg {
    /// Render as Graphviz dot: one cluster per unit, campaign jobs as
    /// edges from a virtual root.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph pioeval_cfg {\n  node [shape=box, fontsize=10];\n");
        if !self.jobs.is_empty() {
            out.push_str("  campaign [shape=doubleoctagon];\n");
        }
        for (ui, unit) in self.units.iter().enumerate() {
            out.push_str(&format!(
                "  subgraph cluster_{ui} {{\n    label=\"{}\";\n",
                escape(&unit.name)
            ));
            for (bi, b) in unit.blocks.iter().enumerate() {
                let label = match &b.kind {
                    BlockKind::Entry => "entry".to_string(),
                    BlockKind::Exit => "exit".to_string(),
                    BlockKind::Join => "join".to_string(),
                    BlockKind::Barrier { line } => format!("barrier (line {line})"),
                    BlockKind::LoopHead { trips, line, .. } => {
                        format!("repeat {trips} (line {line})")
                    }
                    BlockKind::RankGuard { rank, line, .. } => {
                        format!("onrank {rank} (line {line})")
                    }
                    BlockKind::Body => {
                        if b.stmts.is_empty() {
                            String::new()
                        } else {
                            b.stmts
                                .iter()
                                .map(stmt_text)
                                .collect::<Vec<_>>()
                                .join("\\n")
                        }
                    }
                };
                out.push_str(&format!("    u{ui}b{bi} [label=\"{}\"];\n", escape(&label)));
            }
            for (bi, b) in unit.blocks.iter().enumerate() {
                for &s in &b.succ {
                    out.push_str(&format!("    u{ui}b{bi} -> u{ui}b{s};\n"));
                }
            }
            out.push_str("  }\n");
        }
        for (workload, ranks, _) in &self.jobs {
            if let Some(ui) = self.units.iter().position(|u| &u.name == workload) {
                let entry = self.units[ui].entry;
                out.push_str(&format!(
                    "  campaign -> u{ui}b{entry} [label=\"ranks={ranks}\"];\n"
                ));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Render as JSON (schema `pioeval-cfg/1`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"pioeval-cfg/1\",\"units\":[");
        for (ui, unit) in self.units.iter().enumerate() {
            if ui > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"entry\":{},\"exit\":{},\"blocks\":[",
                esc(&unit.name),
                unit.entry,
                unit.exit
            ));
            for (bi, b) in unit.blocks.iter().enumerate() {
                if bi > 0 {
                    out.push(',');
                }
                let (kind, extra) = match &b.kind {
                    BlockKind::Entry => ("entry", String::new()),
                    BlockKind::Exit => ("exit", String::new()),
                    BlockKind::Join => ("join", String::new()),
                    BlockKind::Body => ("body", String::new()),
                    BlockKind::Barrier { line } => ("barrier", format!(",\"line\":{line}")),
                    BlockKind::LoopHead {
                        trips,
                        line,
                        body,
                        follow,
                    } => (
                        "loop",
                        format!(",\"line\":{line},\"trips\":{trips},\"body\":{body},\"follow\":{follow}"),
                    ),
                    BlockKind::RankGuard {
                        rank,
                        line,
                        body,
                        join,
                    } => (
                        "onrank",
                        format!(",\"line\":{line},\"rank\":{rank},\"body\":{body},\"join\":{join}"),
                    ),
                };
                out.push_str(&format!(
                    "{{\"id\":{bi},\"kind\":\"{kind}\"{extra},\"stmts\":["
                ));
                for (si, s) in b.stmts.iter().enumerate() {
                    if si > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"line\":{},\"text\":\"{}\"}}",
                        s.line,
                        esc(&stmt_text(s))
                    ));
                }
                out.push_str(&format!("],\"succ\":{:?}}}", b.succ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"campaign\":[");
        for (ji, (workload, ranks, line)) in self.jobs.iter().enumerate() {
            if ji > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"workload\":\"{}\",\"ranks\":{ranks},\"line\":{line}}}",
                esc(workload)
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioeval_workloads::dsl::parse_dsl_ast;

    fn cfg(src: &str) -> Cfg {
        lower_workload("main", &parse_dsl_ast(src, 0).unwrap())
    }

    #[test]
    fn straight_line_is_one_body_block() {
        let c = cfg("file a shared\ncreate a\nwrite a 1m\nclose a");
        // entry -> body(3 stmts) -> exit
        let bodies: Vec<&Block> = c
            .blocks
            .iter()
            .filter(|b| b.kind == BlockKind::Body && !b.stmts.is_empty())
            .collect();
        assert_eq!(bodies.len(), 1);
        assert_eq!(bodies[0].stmts.len(), 3);
        assert!(c.reachable().iter().all(|&r| r));
    }

    #[test]
    fn barrier_splits_blocks() {
        let c = cfg("file a shared\ncreate a\nbarrier\nclose a");
        assert!(c
            .blocks
            .iter()
            .any(|b| matches!(b.kind, BlockKind::Barrier { line: 3 })));
        let bodies = c
            .blocks
            .iter()
            .filter(|b| b.kind == BlockKind::Body && !b.stmts.is_empty())
            .count();
        assert_eq!(bodies, 2);
    }

    #[test]
    fn repeat_lowers_to_loop_head_with_back_edge() {
        let c = cfg("file a shared\ncreate a\nrepeat 3\nwrite a 1m\nend\nclose a");
        let (id, body, follow) = c
            .blocks
            .iter()
            .enumerate()
            .find_map(|(i, b)| match b.kind {
                BlockKind::LoopHead {
                    trips: 3,
                    body,
                    follow,
                    ..
                } => Some((i, body, follow)),
                _ => None,
            })
            .expect("loop head");
        assert!(c.blocks[id].succ.contains(&body));
        assert!(c.blocks[id].succ.contains(&follow));
        // The body region loops back to the head.
        assert!(c.blocks[id].pred.len() >= 2, "back edge missing");
        assert!(c.reachable()[body]);
    }

    #[test]
    fn repeat_zero_body_is_unreachable() {
        let c = cfg("file a shared\ncreate a\nrepeat 0\nwrite a 1m\nbarrier\nend\nclose a");
        let regions = c.unreachable_regions();
        assert_eq!(regions.len(), 1, "{regions:?}");
        assert_eq!(regions[0].1, 4); // first dead stmt: the write on line 4
    }

    #[test]
    fn onrank_lowers_to_guard_and_join() {
        let c = cfg("file a perrank\ncreate a\nonrank 2\nwrite a 1m\nend\nclose a");
        let (body, join) = c
            .blocks
            .iter()
            .find_map(|b| match b.kind {
                BlockKind::RankGuard {
                    rank: 2,
                    body,
                    join,
                    ..
                } => Some((body, join)),
                _ => None,
            })
            .expect("rank guard");
        assert_eq!(c.blocks[body].guards, vec![2]);
        assert!(c.blocks[join].pred.len() == 2, "taken+skip paths");
        assert!(c.reachable()[body]);
    }

    #[test]
    fn dumps_are_well_formed() {
        let src = "
            workload w
              file f perrank
              create f
              repeat 2
                write f 1m
              end
              close f
            end
            campaign
              job w ranks 4
              job w ranks 2
            end
        ";
        let p = pioeval_workloads::dsl::parse_program_ast(src, 0).unwrap();
        let pc = lower_program(&p);
        let dot = pc.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("ranks=4"));
        assert!(dot.contains("repeat 2"));
        let json = pc.to_json();
        assert!(json.contains("\"schema\":\"pioeval-cfg/1\""));
        assert!(json.contains("\"kind\":\"loop\""));
        assert!(json.contains("\"ranks\":4"));
        // Every succ id in range.
        for u in &pc.units {
            for b in &u.blocks {
                for &s in &b.succ {
                    assert!(s < u.blocks.len());
                }
            }
        }
    }

    #[test]
    fn json_escapes_control_characters_in_names() {
        let src =
            "file ck\x01pt shared lane 1m\ncreate ck\x01pt\nwrite ck\x01pt 1m\nclose ck\x01pt";
        let p = pioeval_workloads::dsl::parse_program_ast(src, 0).unwrap();
        let json = lower_program(&p).to_json();
        assert!(
            !json.bytes().any(|b| b < 0x20),
            "raw control byte: {json:?}"
        );
        let doc = serde_json::parse(&json).expect("CFG JSON must parse");
        let Some(serde_json::Value::Seq(units)) = doc.get("units") else {
            panic!("no units: {json}");
        };
        let Some(serde_json::Value::Seq(blocks)) = units[0].get("blocks") else {
            panic!("no blocks: {json}");
        };
        let texts: Vec<&serde_json::Value> = blocks
            .iter()
            .filter_map(|b| match b.get("stmts") {
                Some(serde_json::Value::Seq(stmts)) => Some(stmts),
                _ => None,
            })
            .flatten()
            .filter_map(|s| s.get("text"))
            .collect();
        assert_eq!(
            texts.first(),
            Some(&&serde_json::Value::Str("create ck\x01pt".into()))
        );
    }
}
