//! Kinded unification and polymorphic type inference for the view calculus.
//!
//! This crate implements the type system of the paper:
//!
//! * the kinding rules and record typing rules of Fig. 1 (an adaptation of
//!   Ohori's POPL'92 polymorphic record calculus, refined to distinguish
//!   mutable and immutable fields via the `F < F'` relation);
//! * the object/view typing rules of Fig. 2;
//! * the class typing rules of Fig. 4 and the recursive-class rule of
//!   Fig. 6;
//! * ML-style let-polymorphism with a value restriction enforcing the
//!   paper's soundness condition that mutable fields never receive
//!   polymorphic types (Section 2, citing Milner).
//!
//! The entry points are [`Infer`] (the inference context: fresh variables,
//! substitution, kind assignment) and [`infer::infer`] /
//! [`Infer::infer_scheme`]. Principal types are produced by generalization;
//! [`instance::instance_of`] implements the "is an instance of" relation
//! used to check principality (Prop. 2) in tests.

pub mod builtins_sig;
pub mod ctx;
pub mod env;
pub mod error;
pub mod generalize;
pub mod infer;
pub mod instance;
pub mod table;
pub mod unify;

pub use ctx::{Infer, InferStats};
pub use env::TypeEnv;
pub use error::TypeError;
pub use table::{NodeId, TypeTable};

use polyview_syntax::{Expr, Scheme};

impl Infer {
    /// Infer the principal scheme of an expression under `env`, generalizing
    /// subject to the value restriction.
    pub fn infer_scheme(&mut self, env: &mut TypeEnv, e: &Expr) -> Result<Scheme, TypeError> {
        let t = infer::infer(self, env, e)?;
        if generalize::is_nonexpansive(e) {
            Ok(self.generalize(env, &t))
        } else {
            Ok(Scheme::mono(self.resolve(&t)))
        }
    }

    /// [`Infer::infer_scheme`] for a statement that binds no name (a
    /// query, `insert`, `update`). Afterwards the type variables it
    /// minted are forgotten unless an older variable now refers to them,
    /// so checking a stream of distinct statements does not grow the
    /// substitution. The returned scheme is resolved and carries its
    /// binders' kinds, and a recorded table is resolved before the
    /// release, so neither needs what is forgotten.
    pub fn infer_statement(&mut self, env: &mut TypeEnv, e: &Expr) -> Result<Scheme, TypeError> {
        self.open_scope();
        let r = self.infer_scheme(env, e);
        self.close_scope();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyview_syntax::builder as b;
    use polyview_syntax::{Kind, Mono};

    #[test]
    fn statements_release_the_variables_they_mint() {
        let mut cx = Infer::new();
        let mut env = builtins_sig::builtin_env();
        let stmt = |i: i64| {
            b::hom(
                b::set([b::record([b::imm("A", b::int(i)), b::mt("B", b::str("x"))])]),
                b::lam("r", b::set([b::dot(b::v("r"), "A")])),
                b::lam("a", b::lam("c", b::union(b::v("a"), b::v("c")))),
                b::empty(),
            )
        };
        let s = cx.infer_statement(&mut env, &stmt(0)).expect("typed");
        assert_eq!(s.to_string(), "{int}");
        let kept = cx.retained();
        for i in 1..50 {
            cx.infer_statement(&mut env, &stmt(i)).expect("typed");
        }
        assert_eq!(cx.retained(), kept, "the substitution grew");
        // A failed statement releases its variables too.
        let bad = b::add(b::int(1), b::str("x"));
        assert!(cx.infer_statement(&mut env, &bad).is_err());
        assert_eq!(cx.retained(), kept);
    }

    #[test]
    fn statements_keep_what_older_variables_reach() {
        let mut cx = Infer::new();
        let mut env = builtins_sig::builtin_env();
        // Two monomorphic globals with free variables, as the value
        // restriction leaves them.
        let (g, h) = (cx.fresh_var_id(), cx.fresh_var_id());
        env.define_global("g", Scheme::mono(Mono::Var(g)));
        env.define_global("h", Scheme::mono(Mono::Var(h)));
        // Binds g through a chain of variables minted by the statement.
        let bind_g = b::union(b::v("g"), b::set([b::record([b::imm("A", b::int(1))])]));
        cx.infer_statement(&mut env, &bind_g).expect("typed");
        assert_eq!(cx.resolve(&Mono::Var(g)).to_string(), "{[A = int]}");
        // Gives h a record kind whose field type the statement minted.
        let kind_h = b::eq(b::dot(b::v("h"), "Name"), b::str("x"));
        cx.infer_statement(&mut env, &kind_h).expect("typed");
        match cx.resolve_kind(&cx.kind_of(h)) {
            Kind::Record(reqs) => assert_eq!(reqs.values().next().unwrap().ty, Mono::str()),
            k => panic!("h lost its kind: {k:?}"),
        }
    }
}
