//! L007 — lost wakeup (the shape of an old service shutdown hang). A
//! waiter checks a flag under a mutex and then parks on that mutex's
//! condvar. A setter that stores the flag into an atomic and notifies
//! *without* taking the mutex in between can land its notify while the
//! waiter sits between its check and its wait: the waiter then sleeps
//! through the only wakeup it was going to get. The fix is to acquire
//! (and drop) the condvar's mutex after the store and before the
//! notify.
//!
//! Like L005 this is a linear token scan, not a data-flow analysis. In
//! each function it remembers the last `.store(…)` call, forgets it at
//! any lock acquisition (L005's acquisition set), and flags a
//! `.notify_one()` / `.notify_all()` reached while a store is still
//! remembered. The scan cannot tell which mutex a condvar pairs with, so
//! any acquisition clears the store; and a store made while the mutex is
//! already held is safe but still flagged — waive that with a reason.

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::TokenKind;
use crate::rules::l005::ACQUIRERS;
use crate::rules::RuleCtx;

/// Flag a condvar notify that follows an atomic store with no lock
/// acquisition in between.
pub fn run(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.in_test_dir {
        return;
    }
    let scope = ctx.scope;
    let code = &scope.code;
    // The line of the remembered `.store(…)`, if any.
    let mut stored: Option<usize> = None;
    for k in 0..code.len() {
        let t = &scope.tokens[code[k]];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(ctx.src);
        if name == "fn" {
            stored = None;
            continue;
        }
        let is_method_call = k > 0
            && scope.tokens[code[k - 1]].kind == TokenKind::Punct('.')
            && matches!(code.get(k + 1), Some(&i) if scope.tokens[i].kind == TokenKind::Punct('('));
        if !is_method_call || scope.in_test_region(t.line) {
            continue;
        }
        if name == "store" {
            stored = Some(t.line);
        } else if ACQUIRERS.contains(&name) {
            stored = None;
        } else if name == "notify_one" || name == "notify_all" {
            if let Some(line) = stored {
                out.push(ctx.diag(
                    RuleId::L007,
                    t.line,
                    t.col,
                    format!(
                        "`.{name}()` after the atomic store on line {line} with no lock taken \
                         in between — a waiter between its flag check and its wait misses this \
                         wakeup; lock the condvar's mutex after the store"
                    ),
                ));
            }
        }
    }
}
