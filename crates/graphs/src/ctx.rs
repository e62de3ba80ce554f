//! The context every long operation takes: how much it may do, whether
//! it may keep going, and where its certificates go (DESIGN.md §12.2).

use crate::budget::RunBudget;
use crate::cancel::CancelToken;
use ksa_cert::CertSink;

/// A [`RunBudget`], a [`CancelToken`] and an optional [`CertSink`].
///
/// Each long operation (the round build, the homology sweep, the
/// cross-check sweep, the CSP decision, the shelling search) has one
/// entry point taking `ctx: impl Into<Ctx>`. A plain `u128` or
/// [`RunBudget`] converts to a context with that budget, a token that
/// never fires and no sink, so the plain call is the same call; a
/// `&CertSink` converts to the default context with that sink. The
/// operation produces certificates exactly when `certs` is set.
///
/// # Examples
///
/// ```
/// use ksa_cert::CertSink;
/// use ksa_graphs::cancel::CancelToken;
/// use ksa_graphs::ctx::Ctx;
///
/// let token = CancelToken::new();
/// let sink = CertSink::new("fig4a");
/// let ctx = Ctx {
///     cancel: token.clone(),
///     certs: Some(&sink),
///     ..Ctx::from(1_000_000u128)
/// };
/// assert_eq!(ctx.budget.max_executions, 1_000_000);
/// token.cancel();
/// assert!(ctx.cancel.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ctx<'a> {
    /// How many cases the operation may enumerate.
    pub budget: RunBudget,
    /// Polled at the operation's checkpoints; a fired token surfaces as
    /// the operation's `Cancelled` / `DeadlineExceeded` error.
    pub cancel: CancelToken,
    /// Receives the operation's certificates, if set.
    pub certs: Option<&'a CertSink>,
}

impl From<RunBudget> for Ctx<'_> {
    fn from(budget: RunBudget) -> Self {
        Ctx {
            budget,
            ..Ctx::default()
        }
    }
}

impl From<u128> for Ctx<'_> {
    fn from(max_executions: u128) -> Self {
        RunBudget::new(max_executions).into()
    }
}

impl<'a> From<&'a CertSink> for Ctx<'a> {
    fn from(sink: &'a CertSink) -> Self {
        Ctx {
            certs: Some(sink),
            ..Ctx::default()
        }
    }
}
