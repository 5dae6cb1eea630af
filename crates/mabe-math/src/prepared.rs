//! Arguments that may come with preprocessed tables.
//!
//! Long-lived group elements are worth preprocessing, as PBC does with
//! `element_pp_init` and `pairing_pp_init`: a [`crate::FixedBase`]
//! table for a base multiplied many times, [`crate::FixedPairing`]
//! lines for a first argument paired many times. An operation that can
//! use such tables takes its argument as `impl Into<WithTables<..>>`,
//! so a plain reference still works and runs the full computation,
//! while a caller that kept tables passes them beside the value. The
//! tables change how a result is computed, never the result.

/// An argument together with the tables its holder kept for it, if
/// any. A bare reference converts with none.
#[derive(Debug)]
pub struct WithTables<'a, T: ?Sized, P: ?Sized> {
    /// The argument itself.
    pub value: &'a T,
    /// The kept tables, if any.
    pub tables: Option<&'a P>,
}

// Copy for every `T` and `P`: both fields are shared references (a
// derive would demand `T: Copy`).
impl<T: ?Sized, P: ?Sized> Clone for WithTables<'_, T, P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: ?Sized, P: ?Sized> Copy for WithTables<'_, T, P> {}

impl<'a, T: ?Sized, P: ?Sized> WithTables<'a, T, P> {
    /// Pairs `value` with `tables`.
    pub fn new(value: &'a T, tables: Option<&'a P>) -> Self {
        WithTables { value, tables }
    }
}

impl<'a, T: ?Sized, P: ?Sized> From<&'a T> for WithTables<'a, T, P> {
    fn from(value: &'a T) -> Self {
        WithTables {
            value,
            tables: None,
        }
    }
}
