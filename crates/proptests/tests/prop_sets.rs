//! Properties of the set semantics chosen in Section 3.1: sets identify
//! objects up to `objeq`, union is associative/idempotent on keys and
//! left-biased on representatives.

use polyview_eval::value::{ObjVal, RecordVal, ViewFn};
use polyview_eval::{Key, SetVal, Value};
use polyview_syntax::Layout;
use proptest::prelude::*;
use std::rc::Rc;

/// Build a value from a compact descriptor: ints are base values, (raw id,
/// obj id) pairs are objects (same raw ⇒ objeq-identified).
#[derive(Clone, Debug)]
enum Elem {
    Int(i64),
    Obj { raw: u64, assoc: u64 },
}

fn value(e: &Elem) -> Value {
    match e {
        Elem::Int(n) => Value::Int(*n),
        Elem::Obj { raw, assoc } => Value::Obj(Rc::new(ObjVal {
            id: *assoc,
            raw: Value::Record(Rc::new(RecordVal {
                id: *raw,
                layout: Rc::new(Layout::new([])),
                fields: Vec::new(),
            })),
            view: ViewFn::Identity,
        })),
    }
}

fn elem_strategy() -> impl Strategy<Value = Elem> {
    prop_oneof![
        (-20i64..20).prop_map(Elem::Int),
        (0u64..6, 0u64..1000).prop_map(|(raw, assoc)| Elem::Obj { raw, assoc }),
    ]
}

fn set_of(elems: &[Elem]) -> SetVal {
    SetVal::from_elems(elems.iter().map(value))
}

fn keys(s: &SetVal) -> Vec<Key> {
    s.0.keys().cloned().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Key sets of unions are unions of key sets (order-insensitive).
    #[test]
    fn union_key_sets_are_set_union(
        a in prop::collection::vec(elem_strategy(), 0..10),
        b in prop::collection::vec(elem_strategy(), 0..10),
    ) {
        let (sa, sb) = (set_of(&a), set_of(&b));
        let u = sa.union_left(&sb);
        let mut expected: Vec<Key> = keys(&sa);
        for k in keys(&sb) {
            if !expected.contains(&k) {
                expected.push(k);
            }
        }
        expected.sort();
        prop_assert_eq!(keys(&u), expected);
    }

    /// Union is associative on keys and representatives.
    #[test]
    fn union_is_associative(
        a in prop::collection::vec(elem_strategy(), 0..8),
        b in prop::collection::vec(elem_strategy(), 0..8),
        c in prop::collection::vec(elem_strategy(), 0..8),
    ) {
        let (sa, sb, sc) = (set_of(&a), set_of(&b), set_of(&c));
        let left = sa.union_left(&sb).union_left(&sc);
        let right = sa.union_left(&sb.union_left(&sc));
        prop_assert_eq!(keys(&left), keys(&right));
        // Left bias makes representatives agree too.
        for (k, v) in left.0.iter() {
            prop_assert!(v.value_eq(&right.0[k]));
        }
    }

    /// Union is idempotent.
    #[test]
    fn union_is_idempotent(a in prop::collection::vec(elem_strategy(), 0..10)) {
        let sa = set_of(&a);
        let u = sa.union_left(&sa);
        prop_assert_eq!(keys(&u), keys(&sa));
    }

    /// Left bias: on key collision the left representative survives.
    #[test]
    fn union_is_left_biased(
        a in prop::collection::vec(elem_strategy(), 0..10),
        b in prop::collection::vec(elem_strategy(), 0..10),
    ) {
        let (sa, sb) = (set_of(&a), set_of(&b));
        let u = sa.union_left(&sb);
        for (k, v) in sa.0.iter() {
            prop_assert!(u.0[k].value_eq(v), "left element replaced for key {k:?}");
        }
    }

    /// Objects with the same raw record collapse to one element whose
    /// representative is the first inserted.
    #[test]
    fn objeq_collapse_keeps_first(assocs in prop::collection::vec(0u64..1000, 1..8)) {
        let elems: Vec<Elem> = assocs
            .iter()
            .map(|&assoc| Elem::Obj { raw: 42, assoc })
            .collect();
        let s = set_of(&elems);
        prop_assert_eq!(s.len(), 1);
        let kept = s.values().next().expect("one");
        prop_assert!(kept.value_eq(&value(&elems[0])));
    }

    /// Difference removes exactly the common keys.
    #[test]
    fn difference_complements_union(
        a in prop::collection::vec(elem_strategy(), 0..10),
        b in prop::collection::vec(elem_strategy(), 0..10),
    ) {
        let (sa, sb) = (set_of(&a), set_of(&b));
        let d = sa.difference(&sb);
        for k in keys(&d) {
            prop_assert!(sa.contains_key(&k));
            prop_assert!(!sb.contains_key(&k));
        }
        for k in keys(&sa) {
            if !sb.contains_key(&k) {
                prop_assert!(d.contains_key(&k));
            }
        }
    }

    /// Set values compare by element keys: permutations are equal.
    #[test]
    fn sets_equal_up_to_permutation(mut elems in prop::collection::vec(elem_strategy(), 0..10)) {
        let s1 = Value::Set(set_of(&elems));
        elems.reverse();
        let s2 = Value::Set(set_of(&elems));
        // NOTE: with objeq collapse, reversing may keep a *different*
        // representative, but keys still agree, so eq holds.
        prop_assert!(s1.value_eq(&s2));
    }
}
