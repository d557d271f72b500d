//! The rule passes. Each rule is a function over a [`RuleCtx`] pushing
//! [`Diagnostic`]s; the driver ([`crate::check_file_source`]) runs every
//! rule and then filters waived and allowed findings.

use crate::diag::Diagnostic;
use crate::scope::FileScope;

pub mod l001;
pub mod l002;
pub mod l003;
pub mod l004;
pub mod l005;
pub mod l006;
pub mod l007;

/// Read-only context handed to every rule for one file.
pub struct RuleCtx<'a> {
    /// Workspace-relative path, `/` separators.
    pub path: &'a str,
    /// File contents.
    pub src: &'a str,
    /// Shared scope analysis.
    pub scope: &'a FileScope,
    /// File lives under a `tests/`, `examples/` or `benches/` directory
    /// (panics and clocks are fine there).
    pub in_test_dir: bool,
    /// File is on the value path (bit-identity contract applies): either
    /// its path is in the configured set or it declares
    /// `// normlint: value-path`.
    pub value_path: bool,
}

impl RuleCtx<'_> {
    /// Build a diagnostic at a token's location.
    pub fn diag(
        &self,
        rule: crate::diag::RuleId,
        line: usize,
        col: usize,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            path: self.path.to_string(),
            line,
            col,
            message,
        }
    }
}
