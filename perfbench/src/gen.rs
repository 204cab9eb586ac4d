//! Seeded workload generation and the correctness oracle.
//!
//! Everything here is std-only and deterministic: a splitmix64 stream per
//! (seed, client) decides every statement, and the generator keeps its own
//! model of the database so it knows every expected answer without asking
//! the engine. Clients own disjoint parts of the state (the `Staff` members
//! whose salaries they write, the `fun` names they rebind), so each
//! client's model stays exact however the server interleaves the clients.
//! The one shared value, `point_ops`' counter, is checked against bounds
//! read-your-writes guarantees, and exactly at the end of the run.

use crate::builders::{employee_record, sharing_prelude};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The splitmix64 generator: one 64-bit state, no external crates.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ViewScan,
    DeclChurn,
    PointOps,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ViewScan, Workload::DeclChurn, Workload::PointOps];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ViewScan => "view_scan",
            Workload::DeclChurn => "decl_churn",
            Workload::PointOps => "point_ops",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Ops per block; each block holds exactly `writes_per_block` writes at
    /// seeded positions, so the read/write mix is exact in every run.
    fn block(self) -> (u64, u64) {
        match self {
            Workload::ViewScan => (10, 1),
            Workload::DeclChurn => (2, 1),
            Workload::PointOps => (5, 1),
        }
    }
}

/// Data sizes. `FULL` is what the benchmark measures; `TINY` is the
/// self-test's.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// `Staff` objects preloaded for `view_scan` (half of them female).
    pub staff: usize,
    /// Top-level `fun` names preloaded for `decl_churn`.
    pub names: usize,
    /// View-class names per client for `decl_churn`.
    pub views: usize,
    /// Objects in each base class of `sharing_prelude` (`decl_churn`) and
    /// in `point_ops`' `Small`.
    pub small: usize,
}

impl Size {
    pub const FULL: Size = Size {
        staff: 400,
        names: 500,
        views: 4,
        small: 8,
    };
    pub const TINY: Size = Size {
        staff: 40,
        names: 50,
        views: 2,
        small: 8,
    };
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// What a correct server answers.
#[derive(Clone, Debug)]
pub enum Expect {
    Exact(String),
    /// A declaration: the rendered binding starts with `name : `.
    Binds(String),
    /// A rendered set of strings, compared as a set.
    Names(Arc<Vec<String>>),
    /// `point_ops`' counter: at least this client's own acknowledged
    /// increments, at most every increment issued so far by anyone.
    Counter(u64),
}

pub struct Op {
    pub kind: Kind,
    pub src: String,
    pub expect: Expect,
}

/// Writes issued to `point_ops`' shared counter, across all clients.
pub type Issued = Arc<AtomicU64>;

impl Op {
    /// Check `got` against the expectation; `Err` describes a wrong answer.
    pub fn check(&self, got: &str, issued: &Issued) -> Result<(), String> {
        let ok = match &self.expect {
            Expect::Exact(want) => got == want,
            Expect::Binds(name) => got.starts_with(&format!("{name} : ")),
            Expect::Names(want) => parse_string_set(got).as_deref() == Some(&want[..]),
            Expect::Counter(min) => got
                .parse::<u64>()
                .is_ok_and(|v| v >= *min && v <= issued.load(Ordering::SeqCst)),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "wrong answer to `{}`: got `{}`, want {:?}",
                self.src,
                truncate(got, 200),
                self.expect
            ))
        }
    }
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// Parse a rendered set of plain strings (`{"a", "b"}`), sorted.
fn parse_string_set(s: &str) -> Option<Vec<String>> {
    let inner = s.strip_prefix('{')?.strip_suffix('}')?;
    let mut names: Vec<String> = Vec::new();
    for item in inner.split(", ").filter(|i| !i.is_empty()) {
        names.push(item.strip_prefix('"')?.strip_suffix('"')?.to_string());
    }
    names.sort();
    Some(names)
}

pub const VIEW_READ: &str = "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Female)";
const STAFF_SALARY_SUM: &str =
    "cquery(fn s => hom(s, fn o => query(fn x => x.Salary, o), fn a => fn b => a + b, 0), Staff)";
const SMALL_COUNT: &str = "cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), Small)";
const CTR_READ: &str = "ctr.n";
const CTR_WRITE: &str = "update(ctr, n, ctr.n + 1)";

/// The statements that build a workload's state, in order. Each is one
/// log entry; the caller may batch them into frames.
pub fn setup_statements(w: Workload, size: Size, clients: usize) -> Vec<String> {
    let mut out = Vec::new();
    match w {
        Workload::ViewScan => {
            // Both classes are declared before any object exists, as in
            // `examples/loadgen.rs`; the view's field reads then stay on
            // the evaluator's dynamic lookup path.
            out.push("class Staff = class {} end;".to_string());
            out.push(
                "class Female = class {} include Staff as fn x => [Name = x.Name] \
                 where fn x => query(fn p => p.Sex = \"female\", x) end;"
                    .to_string(),
            );
            for i in 0..size.staff {
                out.push(format!("insert(Staff, IDView({}));", employee_record(i)));
            }
        }
        Workload::DeclChurn => {
            out.push(sharing_prelude(size.small));
            for k in 0..size.names {
                out.push(fun_decl(k, 1, k as u64));
            }
            for c in 0..clients {
                for j in 0..size.views {
                    out.push(view_decl(c, j, 0, 0));
                }
            }
        }
        Workload::PointOps => {
            let objs: Vec<String> = (0..size.small)
                .map(|i| format!("IDView({})", employee_record(i)))
                .collect();
            out.push(format!("class Small = class {{{}}} end;", objs.join(", ")));
            out.push("val ctr = [n := 0];".to_string());
        }
    }
    out
}

fn fun_decl(k: usize, mul: u64, add: u64) -> String {
    format!("fun f{k} r = r.a * {mul} + {add};")
}

fn view_decl(client: usize, j: usize, shift: u64, min_age: u64) -> String {
    format!(
        "class V{client}_{j} = class {{}} include Staff as fn s => [Name = s.Name, Age = s.Age + {shift}] \
         where fn s => query(fn x => x.Age > {min_age}, s) end;"
    )
}

/// `Staff` members of `sharing_prelude(n)` older than `min_age`.
fn prelude_staff_older_than(n: usize, min_age: u64) -> u64 {
    (0..n).filter(|i| 20 + (i % 50) as u64 > min_age).count() as u64
}

/// Initial salary of `employee_record(i)`.
fn initial_salary(i: usize) -> u64 {
    1000 + (i % 100) as u64 * 10
}

/// One client's op stream plus its model of the state it owns.
pub struct ClientGen {
    w: Workload,
    size: Size,
    client: usize,
    rng: SplitMix,
    /// Ops generated so far.
    n: u64,
    /// Write slots of the current block.
    block_writes: Vec<u64>,
    /// `view_scan`: current salary of each owned `Staff` member, by index.
    salaries: Vec<(usize, u64)>,
    /// `decl_churn`: current `(mul, add)` body of each owned `fun`.
    funs: Vec<(usize, u64, u64)>,
    /// `decl_churn`: current `min_age` predicate threshold of each owned
    /// view class.
    views: Vec<u64>,
    decls: u64,
    /// `point_ops`: this client's increments so far, and the shared
    /// issued count.
    own_incs: u64,
    reads: u64,
    issued: Issued,
    female: Arc<Vec<String>>,
}

impl ClientGen {
    fn new(
        w: Workload,
        size: Size,
        seed: u64,
        client: usize,
        clients: usize,
        issued: Issued,
    ) -> ClientGen {
        let owned = |n: usize| (0..n).filter(move |i| i % clients == client);
        let mut female: Vec<String> = (0..size.staff)
            .filter(|i| i % 2 == 0)
            .map(|i| format!("emp{i}"))
            .collect();
        female.sort();
        ClientGen {
            w,
            size,
            client,
            rng: SplitMix::new(seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)),
            n: 0,
            block_writes: Vec::new(),
            salaries: owned(size.staff).map(|i| (i, initial_salary(i))).collect(),
            funs: owned(size.names).map(|k| (k, 1, k as u64)).collect(),
            views: vec![0; size.views],
            decls: 0,
            own_incs: 0,
            reads: 0,
            issued,
            female: Arc::new(female),
        }
    }

    /// The shared count of counter increments issued, for [`Op::check`].
    pub fn issued(&self) -> &Issued {
        &self.issued
    }

    pub fn next_op(&mut self) -> Op {
        let (len, writes) = self.w.block();
        let slot = self.n % len;
        if slot == 0 {
            self.block_writes.clear();
            while (self.block_writes.len() as u64) < writes {
                let s = self.rng.below(len);
                if !self.block_writes.contains(&s) {
                    self.block_writes.push(s);
                }
            }
        }
        self.n += 1;
        if self.block_writes.contains(&slot) {
            self.write()
        } else {
            self.read()
        }
    }

    fn read(&mut self) -> Op {
        self.reads += 1;
        let (src, expect) = match self.w {
            Workload::ViewScan => (VIEW_READ.to_string(), Expect::Names(self.female.clone())),
            Workload::DeclChurn => {
                let (k, mul, add) = self.funs[self.rng.below(self.funs.len() as u64) as usize];
                // Distinct per query: the working set of statement texts
                // far exceeds the engine's statement cache.
                let a = self.reads * 7 + self.rng.below(7);
                (
                    format!("f{k}([a = {a}])"),
                    Expect::Exact((a * mul + add).to_string()),
                )
            }
            Workload::PointOps => {
                if self.reads.is_multiple_of(2) {
                    (CTR_READ.to_string(), Expect::Counter(self.own_incs))
                } else {
                    (
                        SMALL_COUNT.to_string(),
                        Expect::Exact(self.size.small.to_string()),
                    )
                }
            }
        };
        Op {
            kind: Kind::Read,
            src,
            expect,
        }
    }

    fn write(&mut self) -> Op {
        let (src, expect) = match self.w {
            Workload::ViewScan => {
                let at = self.rng.below(self.salaries.len() as u64) as usize;
                let salary = 1000 + self.rng.below(9000);
                let (i, _) = self.salaries[at];
                self.salaries[at].1 = salary;
                (
                    format!(
                        "cquery(fn s => map(fn o => query(fn x => if x.Name = \"emp{i}\" \
                         then update(x, Salary, {salary}) else (), o), s), Staff)"
                    ),
                    Expect::Exact("{()}".to_string()),
                )
            }
            Workload::DeclChurn => {
                self.decls += 1;
                if self.decls.is_multiple_of(10) {
                    // A view-class redeclaration: Fig. 4 typing on the
                    // write path. Names cycle, so the environment keeps
                    // its size.
                    let j = (self.decls / 10) as usize % self.size.views;
                    let shift = self.rng.below(100);
                    let min_age = 15 + self.rng.below(60);
                    self.views[j] = min_age;
                    (
                        view_decl(self.client, j, shift, min_age),
                        Expect::Binds(format!("V{}_{j}", self.client)),
                    )
                } else {
                    let at = (self.decls as usize) % self.funs.len();
                    let (mul, add) = (1 + self.rng.below(9), self.rng.below(1000));
                    let k = self.funs[at].0;
                    self.funs[at] = (k, mul, add);
                    (fun_decl(k, mul, add), Expect::Binds(format!("f{k}")))
                }
            }
            Workload::PointOps => {
                self.own_incs += 1;
                self.issued.fetch_add(1, Ordering::SeqCst);
                (CTR_WRITE.to_string(), Expect::Exact("()".to_string()))
            }
        };
        Op {
            kind: Kind::Write,
            src,
            expect,
        }
    }
}

/// End-of-run probes: statements every replica must answer with the
/// given value, computed from the clients' models.
pub fn final_probes(gens: &[&ClientGen]) -> Vec<(String, String)> {
    let Some(first) = gens.first() else {
        return Vec::new();
    };
    let (w, size) = (first.w, first.size);
    match w {
        Workload::ViewScan => {
            let sum: u64 = gens
                .iter()
                .flat_map(|g| g.salaries.iter().map(|&(_, s)| s))
                .sum();
            let names: Vec<String> = first.female.iter().map(|n| format!("\"{n}\"")).collect();
            vec![
                (STAFF_SALARY_SUM.to_string(), sum.to_string()),
                (VIEW_READ.to_string(), format!("{{{}}}", names.join(", "))),
            ]
        }
        Workload::DeclChurn => {
            let mut terms = Vec::new();
            let mut want = 0u64;
            for g in gens {
                for &(k, mul, add) in &g.funs {
                    terms.push(format!("f{k}([a = 1])"));
                    want += mul + add;
                }
            }
            let mut counts = Vec::new();
            let mut want_count = 0u64;
            for g in gens {
                for (j, &min_age) in g.views.iter().enumerate() {
                    counts.push(format!(
                        "cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), V{}_{j})",
                        g.client
                    ));
                    want_count += prelude_staff_older_than(size.small, min_age);
                }
            }
            vec![
                (terms.join(" + "), want.to_string()),
                (counts.join(" + "), want_count.to_string()),
            ]
        }
        Workload::PointOps => {
            let incs: u64 = gens.iter().map(|g| g.own_incs).sum();
            debug_assert_eq!(incs, first.issued.load(Ordering::SeqCst));
            vec![
                (CTR_READ.to_string(), incs.to_string()),
                (SMALL_COUNT.to_string(), size.small.to_string()),
            ]
        }
    }
}

/// Per-client generators for one run, sharing one issued-writes counter.
pub fn client_gens(w: Workload, size: Size, seed: u64, clients: usize) -> Vec<ClientGen> {
    let issued: Issued = Arc::new(AtomicU64::new(0));
    (0..clients)
        .map(|c| ClientGen::new(w, size, seed, c, clients, issued.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_exact_per_block() {
        for w in Workload::ALL {
            let mut g = client_gens(w, Size::TINY, 7, 2).remove(0);
            let (len, writes) = w.block();
            let ops: Vec<Op> = (0..len * 20).map(|_| g.next_op()).collect();
            let n = ops.iter().filter(|o| o.kind == Kind::Write).count() as u64;
            assert_eq!(n, writes * 20, "{}", w.name());
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let srcs = |seed| {
            let mut g = client_gens(Workload::DeclChurn, Size::TINY, seed, 2).remove(1);
            (0..50).map(|_| g.next_op().src).collect::<Vec<_>>()
        };
        assert_eq!(srcs(3), srcs(3));
        assert_ne!(srcs(3), srcs(4));
    }

    #[test]
    fn string_sets_compare_as_sets() {
        assert_eq!(
            parse_string_set("{\"b\", \"a\"}"),
            Some(vec!["a".to_string(), "b".to_string()])
        );
        assert_eq!(parse_string_set("{}"), Some(vec![]));
        assert_eq!(parse_string_set("3"), None);
    }
}
