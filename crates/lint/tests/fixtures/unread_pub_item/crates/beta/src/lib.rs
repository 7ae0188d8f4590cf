//! Fixture crate: another crate's library code reads `alpha`.

use alpha::read_in_use_line;

// alpha::read_in_comment() is named here only in a comment.
pub(crate) fn beta() -> &'static str {
    alpha::read_by_beta();
    "alpha::read_in_comment"
}

// A declaration of the same name is not a read of `alpha::unread`.
fn unread() {}
