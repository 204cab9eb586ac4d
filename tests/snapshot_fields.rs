//! The machine snapshot format after the store began holding only
//! locations (format version 2, DESIGN.md §17): inline fields, slots
//! shared by several records, and immutable fields that alias an
//! extracted L-value all round-trip with their sharing intact, and bytes
//! of the older format are refused with the version error.

use polyview::eval::value::{Field, RecordVal};
use polyview::eval::{decode_machine, encode_machine};
use polyview::syntax::wire::WireError;
use polyview::syntax::Label;
use polyview::{Engine, Value};
use std::rc::Rc;

const SESSION: &str = "
    val p = [Name = \"ann\", Age = 30];
    val p2 = p;
    val q = [Name = \"bob\", Salary := 10];
    val q2 = [Pay := extract(q, Salary)];
    val q3 = [Pay = extract(q, Salary), Tag = \"alias\"];
";

fn record(e: &Engine, name: &str) -> Rc<RecordVal> {
    match e.value_of(name) {
        Some(Value::Record(r)) => r,
        other => panic!("{name}: expected a record, got {other:?}"),
    }
}

fn field<'r>(r: &'r RecordVal, label: &str) -> &'r Field {
    &r.fields[r.offset_of(&Label::new(label)).expect("field present")]
}

fn slot(f: &Field) -> usize {
    match f {
        Field::Slot(s) => *s,
        Field::Inline(v) => panic!("expected a store slot, found inline {v:?}"),
    }
}

#[test]
fn snapshot_round_trip_preserves_field_sharing() {
    let mut e = Engine::new();
    e.exec(SESSION).expect("session");
    let mut r = Engine::from_snapshot(&e.snapshot()).expect("restores");

    // Inline fields stay inline, and the shared record stays one record.
    let (p, p2) = (record(&r, "p"), record(&r, "p2"));
    assert!(Rc::ptr_eq(&p, &p2), "one record reachable from two names");
    assert!(matches!(field(&p, "Name"), Field::Inline(Value::Str(s)) if &**s == "ann"));
    assert!(matches!(field(&p, "Age"), Field::Inline(Value::Int(30))));

    // One location behind q.Salary, the mutable q2.Pay and the immutable
    // alias q3.Pay.
    let (q, q2, q3) = (record(&r, "q"), record(&r, "q2"), record(&r, "q3"));
    let s = slot(field(&q, "Salary"));
    assert_eq!(slot(field(&q2, "Pay")), s);
    assert_eq!(slot(field(&q3, "Pay")), s);
    assert!(matches!(field(&q3, "Tag"), Field::Inline(_)));

    // The restored aliases still see each other's writes.
    r.exec("update(q, Salary, 77);").expect("update q");
    assert_eq!(r.eval_to_string("q2.Pay").expect("read"), "77");
    assert_eq!(r.eval_to_string("q3.Pay").expect("read"), "77");
    r.exec("update(q2, Pay, 5);").expect("update q2");
    assert_eq!(r.eval_to_string("q.Salary").expect("read"), "5");
    assert_eq!(r.eval_to_string("q3.Pay").expect("read"), "5");

    // Deterministic: the restored state encodes to the same bytes.
    let again = Engine::from_snapshot(&e.snapshot()).expect("restores");
    assert_eq!(again.snapshot(), e.snapshot());
}

/// Overwrite the version word that follows the machine section's magic.
fn set_machine_version(bytes: &mut [u8], version: u32) {
    let at = bytes
        .windows(4)
        .position(|w| w == b"PVMS")
        .expect("machine magic present");
    bytes[at + 4..at + 8].copy_from_slice(&version.to_le_bytes());
}

#[test]
fn version_one_snapshots_are_refused() {
    let mut e = Engine::new();
    e.exec(SESSION).expect("session");

    let mut machine = encode_machine(e.machine());
    set_machine_version(&mut machine, 1);
    match decode_machine(&machine) {
        Err(WireError::Malformed(m)) => assert!(
            m.contains("unsupported machine snapshot version 1 (this binary reads 2)"),
            "{m}"
        ),
        Err(other) => panic!("wrong error for version 1: {other}"),
        Ok(_) => panic!("version 1 bytes decoded"),
    }

    let mut engine = e.snapshot();
    set_machine_version(&mut engine, 1);
    let err = Engine::from_snapshot(&engine).err().expect("refused");
    assert!(err.is_snapshot_error(), "{err}");
    assert!(err.to_string().contains("version 1"), "{err}");
}
