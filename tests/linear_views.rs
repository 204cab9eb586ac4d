//! The linear union fold behind `map`/`filter` and the store that holds
//! only locations (DESIGN.md §18).
//!
//! * Linearity is pinned by work counters, not wall clock: the sets a
//!   view read allocates stay constant as the extent grows, and the set
//!   entries it writes grow at most linearly.
//! * The fast path is checked against the generic fold, on key
//!   collisions and on left bias.
//! * Repeated view reads leave the store unchanged, while an immutable
//!   field built from an extracted L-value still shares its location.

use polyview::eval::value::Field;
use polyview::syntax::Label;
use polyview::{Engine, EngineStats, Value};

/// The `view_scan` read: names of the `Female` view over `Staff`.
const VIEW_READ: &str = "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Female)";

/// `Staff` with `n` members (half female) and the `Female` view class,
/// declared before any object exists.
fn staff_engine(n: usize) -> Engine {
    let mut e = Engine::new();
    e.exec(
        "class Staff = class {} end;
         class Female = class {} include Staff as fn x => [Name = x.Name]
             where fn x => query(fn p => p.Sex = \"female\", x) end;",
    )
    .expect("classes");
    let objs: Vec<String> = (0..n)
        .map(|i| {
            let sex = if i % 2 == 0 { "female" } else { "male" };
            format!("insert(Staff, IDView([Name = \"emp{i}\", Sex = \"{sex}\", Salary := {i}]));")
        })
        .collect();
    e.exec(&objs.join("\n")).expect("staff");
    e
}

/// Work counters of one run of `src` (prepared once, run once warm).
fn read_cost(e: &mut Engine, src: &str) -> EngineStats {
    let p = e.prepare(src).expect("prepare");
    e.run(&p).expect("warm-up run");
    let before = e.stats();
    e.run(&p).expect("measured run");
    let after = e.stats();
    EngineStats {
        sets_allocated: after.sets_allocated - before.sets_allocated,
        set_entries_inserted: after.set_entries_inserted - before.set_entries_inserted,
        ..EngineStats::default()
    }
}

#[test]
fn view_read_cost_is_linear_in_the_extent() {
    for tier in [true, false] {
        let mut sets = Vec::new();
        for n in [100, 200, 400, 800] {
            let mut e = staff_engine(n);
            e.set_compile_tier(tier);
            let c = read_cost(&mut e, VIEW_READ);
            sets.push(c.sets_allocated);
            // The extent writes n/2 entries and the map n/2 more; a
            // quadratic fold would write about n²/8.
            assert!(
                c.set_entries_inserted <= 2 * n as u64,
                "tier {tier}, n = {n}: {} set entries written",
                c.set_entries_inserted
            );
            assert!(c.set_entries_inserted >= (n / 2) as u64);
        }
        assert!(
            sets.windows(2).all(|w| w[0] == w[1]),
            "tier {tier}: sets allocated per read vary with n: {sets:?}"
        );
    }
}

#[test]
fn explain_reports_set_entries_of_a_view_read() {
    let mut e = staff_engine(100);
    let x = e.explain(VIEW_READ).expect("explain");
    // The extent's 50 entries and the map's 50.
    assert!(x.set_entries_inserted >= 100, "{}", x.set_entries_inserted);
    assert!(
        x.to_string()
            .contains(&format!("set-entries={}", x.set_entries_inserted)),
        "{x}"
    );
}

/// Shared declarations for the differential cases: two objects over one
/// raw record under different views, a second raw record, and a union
/// operator the fast path does not recognize (`a ∪ b ∪ {}` is `a ∪ b`).
const DIFF_SETUP: &str = "
    val r1 = [Name = \"ann\", Salary := 1];
    val r2 = [Name = \"bob\", Salary := 2];
    val ov = IDView(r1) as fn x => [N = x.Name];
    val ow = IDView(r1) as fn x => [N = \"other\"];
    val o2 = IDView(r2) as fn x => [N = x.Name];
    val nums = {1, 2, 3, 4, 5, 6};
    val objs = {ov, o2};
    val slow_union = fn a => fn b => union(union(a, b), {});
    fun names s = hom(s, fn o => {query(fn x => x.N, o)}, slow_union, {});
";

/// `(fast, generic)` pairs that must render identically.
const DIFF_CASES: &[(&str, &str)] = &[
    // map collapsing values onto one key.
    (
        "map(fn i => i % 2, nums)",
        "hom(nums, fn i => {i % 2}, slow_union, {})",
    ),
    // Objects over one raw collide; left bias keeps f(e1)'s view.
    (
        "names(map(fn i => if i < 3 then ow else ov, nums))",
        "names(hom(nums, fn i => {if i < 3 then ow else ov}, slow_union, {}))",
    ),
    (
        "names(map(fn i => if i > 3 then ow else ov, nums))",
        "names(hom(nums, fn i => {if i > 3 then ow else ov}, slow_union, {}))",
    ),
    // A multi-element literal whose own elements collide.
    (
        "names(hom(nums, fn i => {ow, ov, o2}, fn a => fn b => union(a, b), {}))",
        "names(hom(nums, fn i => {ow, ov, o2}, slow_union, {}))",
    ),
    // A non-empty seed loses to the elements on a collision.
    (
        "names(hom(objs, fn o => {ow}, fn a => fn b => union(a, b), {ov}))",
        "names(hom(objs, fn o => {ow}, slow_union, {ov}))",
    ),
    // filter, over base values and over objects.
    (
        "filter(fn i => i > 2, nums)",
        "hom(nums, fn x => if x > 2 then {x} else {}, slow_union, {})",
    ),
    (
        "names(filter(fn o => query(fn x => x.N = \"bob\", o), objs))",
        "names(hom(objs, fn o => if query(fn x => x.N = \"bob\", o) then {o} else {}, slow_union, {}))",
    ),
    // A body that computes its set rather than writing a literal.
    (
        "hom(nums, fn i => let j = i * 2 in union({j}, {j % 3}) end, fn a => fn b => union(a, b), {})",
        "hom(nums, fn i => let j = i * 2 in union({j}, {j % 3}) end, slow_union, {})",
    ),
    // Nested folds.
    (
        "prod(nums, {true, false})",
        "hom(nums, fn x => hom({true, false}, fn y => {[1 = x, 2 = y]}, slow_union, {}), slow_union, {})",
    ),
];

#[test]
fn union_fold_agrees_with_the_generic_fold() {
    for tier in [true, false] {
        let mut e = Engine::new();
        e.set_compile_tier(tier);
        e.exec(DIFF_SETUP).expect("setup");
        for (fast, generic) in DIFF_CASES {
            let f = e.eval_to_string(fast).expect(fast);
            let g = e.eval_to_string(generic).expect(generic);
            assert_eq!(f, g, "tier {tier}: {fast} vs {generic}");
        }
    }
    // Left bias, spelled out: the first element's object survives.
    let mut e = Engine::new();
    e.exec(DIFF_SETUP).expect("setup");
    assert_eq!(
        e.eval_to_string("names(map(fn i => if i < 3 then ow else ov, nums))")
            .expect("eval"),
        "{\"other\"}"
    );
}

#[test]
fn repeated_view_reads_leave_the_store_unchanged() {
    let mut e = staff_engine(40);
    let p = e.prepare(VIEW_READ).expect("prepare");
    e.run(&p).expect("first read");
    let slots = e.machine().store.len();
    for _ in 0..1000 {
        e.run(&p).expect("read");
    }
    assert_eq!(
        e.machine().store.len(),
        slots,
        "view reads leaked locations"
    );
    // The exec path (no statement cache) frees its records too.
    e.eval_to_string(VIEW_READ).expect("read");
    assert_eq!(e.machine().store.len(), slots);
}

#[test]
fn immutable_field_from_extract_still_aliases() {
    let mut e = Engine::new();
    e.exec(
        "val x = [Name = \"ann\", Salary := 10];
         val y = [Pay = extract(x, Salary), Tag = \"copy\"];",
    )
    .expect("setup");
    e.exec("update(x, Salary, 99);").expect("update");
    assert_eq!(e.eval_to_string("y.Pay").expect("read"), "99");
    let y = e.value_of("y").expect("y bound");
    let x = e.value_of("x").expect("x bound");
    let (Value::Record(x), Value::Record(y)) = (x, y) else {
        panic!("records expected");
    };
    let (px, py) = (
        x.offset_of(&Label::new("Salary")),
        y.offset_of(&Label::new("Pay")),
    );
    match (&x.fields[px.expect("Salary")], &y.fields[py.expect("Pay")]) {
        (Field::Slot(a), Field::Slot(b)) => assert_eq!(a, b, "one shared location"),
        other => panic!("extracted field must be a slot: {other:?}"),
    }
    let tag = y.offset_of(&Label::new("Tag")).expect("Tag");
    assert!(matches!(y.fields[tag], Field::Inline(_)));
    // The alias is immutable through `y`.
    assert!(e.exec("update(y, Pay, 1);").is_err());
}

#[test]
fn distinct_write_statements_leave_the_engine_flat() {
    // `view_scan`'s write: every one is a distinct text, so each is
    // parsed, inferred and lowered afresh.
    let write = |k: usize| {
        format!(
            "cquery(fn s => map(fn o => query(fn x => if x.Name = \"emp{}\" \
             then update(x, Salary, {k}) else (), o), s), Staff);",
            k % 20
        )
    };
    let mut e = staff_engine(20);
    e.exec(&write(0)).expect("write");
    let (types, slots) = (e.infer_ctx().retained(), e.machine().store.len());
    for k in 1..200 {
        e.exec(&write(k)).expect("write");
    }
    assert_eq!(e.infer_ctx().retained(), types, "inference state grew");
    assert_eq!(e.machine().store.len(), slots, "the store grew");
    assert_eq!(
        e.eval_to_string("cquery(fn s => hom(s, fn o => query(fn x => x.Salary, o), fn a => fn b => a + b, 0), Staff)")
            .expect("sum"),
        (180..200).sum::<usize>().to_string()
    );
}
