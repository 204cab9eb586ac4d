//! The slot store: the machine's *locations* — mutable record fields, the
//! immutable fields built from an extracted L-value, and class own
//! extents. `extract` shares slots between records (the paper's
//! L-values). Immutable values need no location: they live inline in
//! their record ([`Field::Inline`]), so materialized views and other
//! transient records never grow the store.

use crate::value::{Field, SlotId, Value};

#[derive(Debug, Default)]
pub struct Store {
    slots: Vec<Value>,
}

impl Store {
    pub fn new() -> Self {
        Store::default()
    }

    pub fn alloc(&mut self, v: Value) -> SlotId {
        self.slots.push(v);
        self.slots.len() - 1
    }

    pub fn get(&self, slot: SlotId) -> &Value {
        &self.slots[slot]
    }

    /// The current value of a record field, inline or through its slot.
    pub fn read<'a>(&'a self, f: &'a Field) -> &'a Value {
        match f {
            Field::Inline(v) => v,
            Field::Slot(s) => self.get(*s),
        }
    }

    pub fn set(&mut self, slot: SlotId, v: Value) {
        self.slots[slot] = v;
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_set() {
        let mut st = Store::new();
        let a = st.alloc(Value::Int(1));
        let b = st.alloc(Value::Int(2));
        assert_ne!(a, b);
        assert!(matches!(st.get(a), Value::Int(1)));
        st.set(a, Value::Int(10));
        assert!(matches!(st.get(a), Value::Int(10)));
        assert!(matches!(st.get(b), Value::Int(2)));
    }

    #[test]
    fn read_follows_slots_and_inline_values() {
        let mut st = Store::new();
        let a = st.alloc(Value::Int(1));
        assert!(matches!(st.read(&Field::Slot(a)), Value::Int(1)));
        assert!(matches!(
            st.read(&Field::Inline(Value::Int(7))),
            Value::Int(7)
        ));
        assert_eq!(st.len(), 1, "inline fields take no location");
    }
}
