//! L001 — poison recovery. Two prongs:
//!
//! 1. Anywhere in the workspace: `.unwrap()`/`.expect(...)` whose
//!    receiver chain ends in a lock acquisition (`lock`, `read`,
//!    `write`, `wait`, ...) panics on a poisoned lock instead of
//!    recovering, violating the PR 4 invariant (`unwrap_or_else(
//!    PoisonError::into_inner)` or the shard helpers are the sanctioned
//!    forms).
//! 2. In a file declaring `// normlint: module(no-panic)`: *every*
//!    non-test `.unwrap(`/`.expect(` is a violation, whatever its
//!    receiver. Every file of the core crate's `service` module declares
//!    this — its panics propagate into the shard drivers and poison the
//!    very locks prong 1 protects.
//!
//! Test code (`#[cfg(test)]` regions, `tests/`/`examples/`/`benches/`
//! directories) is exempt: a test *should* panic on an unexpected state.

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::TokenKind;
use crate::rules::RuleCtx;

/// Methods whose result must never be unwrapped (prong 1 chain tails).
// The `Condvar::wait` family is deliberately absent: in the service a
// submitter's only condvar wait is on its own request slot
// (`Slot::take`), which recovers poison with `unwrap_or_else`, while
// `wait` is also the name of the public `NormTicket::wait` (a service
// `Result`, fine to expect on).
const LOCK_METHODS: &[&str] = &["lock", "try_lock", "read", "try_read", "write", "try_write"];

/// Flag `.unwrap()`/`.expect()` on lock results (and any panic in a
/// `module(no-panic)` file).
pub fn run(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.in_test_dir {
        return;
    }
    let scope = ctx.scope;
    let code = &scope.code;
    for (k, &ti) in code.iter().enumerate() {
        let t = &scope.tokens[ti];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(ctx.src);
        if name != "unwrap" && name != "expect" {
            continue;
        }
        // Must be a method call: `.name(`.
        if k == 0 || !is_punct(ctx, code[k - 1], '.') {
            continue;
        }
        if !matches!(code.get(k + 1), Some(&ni) if is_punct_tok(ctx, ni, '(')) {
            continue;
        }
        if scope.in_test_region(t.line) {
            continue;
        }
        if scope.no_panic_module {
            out.push(ctx.diag(
                RuleId::L001,
                t.line,
                t.col,
                format!(
                    ".{name}() in a `module(no-panic)` file — recover or return an error \
                     (a panic here poisons shard locks)"
                ),
            ));
            continue;
        }
        if let Some(method) = chain_tail_lock_method(ctx, k) {
            out.push(ctx.diag(
                RuleId::L001,
                t.line,
                t.col,
                format!(
                    ".{name}() on a `{method}()` result panics on poison — use \
                     unwrap_or_else(PoisonError::into_inner) or the shard recovery helpers"
                ),
            ));
        }
    }
}

/// Walk the postfix chain backwards from the `.` at `code[k-1]` and
/// return the lock method name if the chain tail is a call to one.
/// Handles `expr.lock().unwrap()`, `expr.read()?.unwrap()` and chains of
/// calls; gives up (returns None) at anything that is not `...)`.
fn chain_tail_lock_method(ctx: &RuleCtx<'_>, unwrap_k: usize) -> Option<&'static str> {
    let code = &ctx.scope.code;
    // Position of the token just before the `.`.
    let mut j = unwrap_k.checked_sub(2)?;
    loop {
        // Skip a `?` between the call and the dot.
        if is_punct_tok(ctx, code[j], '?') {
            j = j.checked_sub(1)?;
        }
        if !is_punct_tok(ctx, code[j], ')') {
            return None;
        }
        // Skip backwards over the balanced `(...)`.
        let mut depth = 0usize;
        loop {
            match punct_of(ctx, code[j]) {
                Some(')') => depth += 1,
                Some('(') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j = j.checked_sub(1)?;
        }
        // Token before the `(` should be the method / function name.
        j = j.checked_sub(1)?;
        let t = &ctx.scope.tokens[code[j]];
        if t.kind != TokenKind::Ident {
            return None;
        }
        let name = t.text(ctx.src);
        if let Some(hit) = LOCK_METHODS.iter().find(|m| **m == name) {
            // Only a *method* call (`.lock()`), not a free function.
            if j > 0 && is_punct_tok(ctx, code[j - 1], '.') {
                return Some(hit);
            }
            return None;
        }
        // Keep walking only through a method chain: `.name(...)`.
        if j == 0 || !is_punct_tok(ctx, code[j - 1], '.') {
            return None;
        }
        j = j.checked_sub(2)?;
    }
}

fn is_punct(ctx: &RuleCtx<'_>, token_index: usize, c: char) -> bool {
    is_punct_tok(ctx, token_index, c)
}

fn is_punct_tok(ctx: &RuleCtx<'_>, token_index: usize, c: char) -> bool {
    ctx.scope.tokens[token_index].kind == TokenKind::Punct(c)
}

fn punct_of(ctx: &RuleCtx<'_>, token_index: usize) -> Option<char> {
    match ctx.scope.tokens[token_index].kind {
        TokenKind::Punct(c) => Some(c),
        _ => None,
    }
}
