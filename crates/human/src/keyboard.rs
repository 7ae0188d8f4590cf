//! US-QWERTY keyboard layout: which physical key and modifiers produce a
//! character.
//!
//! §4.1: "while humans need to press modifier keys to press characters like
//! capital letters, Selenium can input any character that exists without
//! pressing additional modifier keys. By monitoring the usage of modifier
//! keys, detectors can infer the keyboard layout". The layout table is what
//! lets HLISA synthesise the Shift presses a human would need — and what
//! lets a detector check consistency between characters and modifiers.

/// How a character is typed on a given layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyStrokeSpec {
    /// DOM `key` value of the main key *as emitted* (e.g. `"A"`).
    pub key: String,
    /// Whether Shift must be held.
    pub needs_shift: bool,
}

/// US-QWERTY shifted-symbol pairs: (unshifted, shifted).
const US_SHIFT_PAIRS: &[(char, char)] = &[
    ('1', '!'),
    ('2', '@'),
    ('3', '#'),
    ('4', '$'),
    ('5', '%'),
    ('6', '^'),
    ('7', '&'),
    ('8', '*'),
    ('9', '('),
    ('0', ')'),
    ('-', '_'),
    ('=', '+'),
    ('[', '{'),
    (']', '}'),
    ('\\', '|'),
    (';', ':'),
    ('\'', '"'),
    (',', '<'),
    ('.', '>'),
    ('/', '?'),
    ('`', '~'),
];

/// Resolves how `ch` is typed on US QWERTY. Returns `None` for characters
/// the layout cannot produce with at most a Shift modifier.
pub fn us_qwerty(ch: char) -> Option<KeyStrokeSpec> {
    if ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == ' ' {
        return Some(KeyStrokeSpec {
            key: ch.to_string(),
            needs_shift: false,
        });
    }
    if ch.is_ascii_uppercase() {
        return Some(KeyStrokeSpec {
            key: ch.to_string(),
            needs_shift: true,
        });
    }
    if ch == '\n' {
        return Some(KeyStrokeSpec {
            key: "Enter".to_string(),
            needs_shift: false,
        });
    }
    if ch == '\t' {
        return Some(KeyStrokeSpec {
            key: "Tab".to_string(),
            needs_shift: false,
        });
    }
    for (plain, shifted) in US_SHIFT_PAIRS {
        if ch == *plain {
            return Some(KeyStrokeSpec {
                key: ch.to_string(),
                needs_shift: false,
            });
        }
        if ch == *shifted {
            return Some(KeyStrokeSpec {
                key: ch.to_string(),
                needs_shift: true,
            });
        }
    }
    None
}

/// True when the character requires Shift on US QWERTY.
#[cfg(test)]
pub fn requires_shift(ch: char) -> bool {
    us_qwerty(ch).map(|s| s.needs_shift).unwrap_or(false)
}

/// Compact, allocation-free identity of a key — the `Copy` counterpart of
/// [`KeyStrokeSpec::key`]'s `String`, for plans that must not allocate per
/// key event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyId {
    /// A character key; the DOM `key` value is the character itself.
    Char(char),
    /// The Shift modifier.
    Shift,
    /// The Enter key.
    Enter,
    /// The Tab key.
    Tab,
}

impl KeyId {
    /// The DOM `key` value, matching [`us_qwerty`]'s `String` exactly.
    pub fn dom_key(self) -> String {
        match self {
            KeyId::Char(c) => c.to_string(),
            KeyId::Shift => "Shift".to_string(),
            KeyId::Enter => "Enter".to_string(),
            KeyId::Tab => "Tab".to_string(),
        }
    }
}

/// Allocation-free form of [`us_qwerty`]: the emitted key and whether
/// Shift must be held. Agrees with [`us_qwerty`] on every character
/// (pinned by a test): `Some` for the same set, same `needs_shift`, and
/// [`KeyId::dom_key`] equal to [`KeyStrokeSpec::key`].
pub fn us_qwerty_key(ch: char) -> Option<(KeyId, bool)> {
    if ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == ' ' || ch.is_ascii_uppercase() {
        return Some((KeyId::Char(ch), ch.is_ascii_uppercase()));
    }
    if ch == '\n' {
        return Some((KeyId::Enter, false));
    }
    if ch == '\t' {
        return Some((KeyId::Tab, false));
    }
    for (plain, shifted) in US_SHIFT_PAIRS {
        if ch == *plain {
            return Some((KeyId::Char(ch), false));
        }
        if ch == *shifted {
            return Some((KeyId::Char(ch), true));
        }
    }
    None
}

/// QWERTY letter rows, for physical adjacency.
const QWERTY_ROWS: [&str; 3] = ["qwertyuiop", "asdfghjkl", "zxcvbnm"];

/// A physically adjacent key on US QWERTY — what a slipping finger hits.
/// `pick` selects among the neighbours deterministically. Returns `None`
/// for characters without a letter-row position.
// lint: allow(unread-pub-item) test reference: the typo tests of hlisa's ExperimentBehaviors (extras.rs)
pub fn adjacent_key(ch: char, pick: usize) -> Option<char> {
    let lower = ch.to_ascii_lowercase();
    for (ri, row) in QWERTY_ROWS.iter().enumerate() {
        if let Some(ci) = row.find(lower) {
            let mut neighbors = Vec::new();
            let row_chars: Vec<char> = row.chars().collect();
            if ci > 0 {
                neighbors.push(row_chars[ci - 1]);
            }
            if ci + 1 < row_chars.len() {
                neighbors.push(row_chars[ci + 1]);
            }
            // Row above / below, roughly same column.
            if ri > 0 {
                let above: Vec<char> = QWERTY_ROWS[ri - 1].chars().collect();
                if ci < above.len() {
                    neighbors.push(above[ci]);
                }
            }
            if ri + 1 < QWERTY_ROWS.len() {
                let below: Vec<char> = QWERTY_ROWS[ri + 1].chars().collect();
                if ci < below.len() {
                    neighbors.push(below[ci]);
                }
            }
            if neighbors.is_empty() {
                return None;
            }
            return Some(neighbors[pick % neighbors.len()]);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercase_needs_no_shift() {
        let s = us_qwerty('a').unwrap();
        assert_eq!(s.key, "a");
        assert!(!s.needs_shift);
    }

    #[test]
    fn uppercase_needs_shift() {
        let s = us_qwerty('A').unwrap();
        assert_eq!(s.key, "A");
        assert!(s.needs_shift);
    }

    #[test]
    fn shifted_symbols() {
        assert!(requires_shift('!'));
        assert!(requires_shift('@'));
        assert!(requires_shift('?'));
        assert!(requires_shift('"'));
        assert!(!requires_shift('1'));
        assert!(!requires_shift(','));
        assert!(!requires_shift('\''));
    }

    #[test]
    fn control_characters() {
        assert_eq!(us_qwerty('\n').unwrap().key, "Enter");
        assert_eq!(us_qwerty('\t').unwrap().key, "Tab");
        assert_eq!(us_qwerty(' ').unwrap().key, " ");
    }

    #[test]
    fn unmapped_characters_return_none() {
        assert!(us_qwerty('é').is_none());
        assert!(us_qwerty('€').is_none());
    }

    #[test]
    fn adjacency_is_physical() {
        // 'g' neighbours on QWERTY: f, h, t, b.
        let mut seen = std::collections::HashSet::new();
        for pick in 0..8 {
            if let Some(n) = adjacent_key('g', pick) {
                seen.insert(n);
            }
        }
        for expected in ['f', 'h', 't', 'b'] {
            assert!(seen.contains(&expected), "missing neighbour {expected}");
        }
        assert!(!seen.contains(&'q'));
    }

    #[test]
    fn adjacency_handles_edges_and_non_letters() {
        assert!(adjacent_key('q', 0).is_some());
        assert!(adjacent_key('!', 0).is_none());
        assert!(adjacent_key(' ', 0).is_none());
    }

    #[test]
    fn every_printable_ascii_is_mapped() {
        for b in 0x20u8..=0x7e {
            let ch = b as char;
            assert!(us_qwerty(ch).is_some(), "unmapped printable {ch:?}");
        }
    }

    /// The compact layout query is a faithful projection of [`us_qwerty`]:
    /// same mapped set, same shift requirement, same emitted DOM key.
    #[test]
    fn compact_key_query_agrees_with_string_query() {
        let sweep = (0u8..=0x7f)
            .map(|b| b as char)
            .chain(['é', 'ß', '→', '\u{80}']);
        for ch in sweep {
            match (us_qwerty(ch), us_qwerty_key(ch)) {
                (None, None) => {}
                (Some(spec), Some((id, shift))) => {
                    assert_eq!(spec.needs_shift, shift, "shift mismatch for {ch:?}");
                    assert_eq!(spec.key, id.dom_key(), "key mismatch for {ch:?}");
                }
                (a, b) => panic!("mapped-set mismatch for {ch:?}: {a:?} vs {b:?}"),
            }
        }
    }
}
