//! Properties of the workspace's one JSON layer: the writer's escaper
//! and the parser agree on every string, every tree the writer emits
//! parses back to itself in both layouts, and no input makes the
//! parser panic.

use proptest::prelude::*;
use spp_core::json::{parse, Json};

/// One character from a class chosen by `class`: a control, a quote
/// or backslash, printable ASCII, a BMP code point, or an astral
/// one (written as a UTF-16 surrogate pair).
fn pick_char(class: u8, raw: u32) -> char {
    let code = match class {
        0 => raw % 0x20,
        1 => [u32::from(b'"'), u32::from(b'\\'), 0x7f][(raw % 3) as usize],
        2 => 0x20 + raw % 0x5f,
        3 => 0x80 + raw % (0x1_0000 - 0x80),
        _ => 0x1_0000 + raw % (0x11_0000 - 0x1_0000),
    };
    // Lone surrogates are not chars; shift them out of the range.
    char::from_u32(code).unwrap_or('\u{e000}')
}

/// A tree decoded from a tape of random words: every value kind,
/// integers across the `i64`/`u128` split, finite floats, strings from
/// every character class, duplicate object keys, nesting up to five
/// levels (the deepest document the workspace writes).
fn tree(tape: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
    let w = tape.next().unwrap_or(0);
    let kinds = if depth >= 5 { 6 } else { 8 };
    match w % kinds {
        0 => Json::Null,
        1 => Json::Bool(w & 0x100 != 0),
        2 => Json::from((w as i64) >> (w % 61)),
        3 => Json::from(u128::from(w) << (w % 64)),
        4 => {
            let x = f64::from_bits(tape.next().unwrap_or(0));
            Json::Num(if x.is_finite() { x } else { w as f64 / 7.0 })
        }
        5 => Json::Str(string(tape)),
        6 => Json::Arr((0..w % 5).map(|_| tree(tape, depth + 1)).collect()),
        _ => Json::Obj(
            (0..w % 5)
                .map(|i| {
                    let key = if i > 0 && w & 0x200 != 0 {
                        "dup".to_string()
                    } else {
                        string(tape)
                    };
                    (key, tree(tape, depth + 1))
                })
                .collect(),
        ),
    }
}

fn string(tape: &mut impl Iterator<Item = u64>) -> String {
    let n = tape.next().unwrap_or(0) % 8;
    (0..n)
        .map(|_| {
            let w = tape.next().unwrap_or(0);
            pick_char((w % 5) as u8, (w >> 8) as u32)
        })
        .collect()
}

/// Printable JSON syntax plus a few bytes that break it, so random
/// text reaches the parser's deeper states, not only its first byte.
const ALPHABET: &[u8] = b"{}[]\":,\\ -+.0123456789eEtrufalsnbu\t\n\x01";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn escape_then_parse_is_the_identity(
        chars in proptest::collection::vec((0u8..5, proptest::num::u32::ANY), 0..40)
    ) {
        let s: String = chars.into_iter().map(|(c, r)| pick_char(c, r)).collect();
        let doc = Json::obj().with("s", s.as_str()).compact();
        prop_assert!(doc.bytes().all(|b| b >= 0x20), "raw control byte in {doc:?}");
        prop_assert_eq!(parse(&doc).unwrap().get("s"), Some(&Json::Str(s)));
    }

    #[test]
    fn written_trees_parse_back_to_themselves_in_both_layouts(
        words in proptest::collection::vec(proptest::num::u64::ANY, 1..200)
    ) {
        let v = tree(&mut words.into_iter(), 0);
        let compact = v.compact();
        prop_assert!(!compact.contains('\n'), "compact layout spans lines: {compact}");
        prop_assert_eq!(&parse(&compact).unwrap(), &v);
        prop_assert_eq!(&parse(&v.report()).unwrap(), &v);
    }

    #[test]
    fn arbitrary_text_never_panics_the_parser(
        picks in proptest::collection::vec(
            (0u8..8, proptest::num::u32::ANY),
            0..80,
        )
    ) {
        let text: String = picks
            .into_iter()
            .map(|(c, r)| match c {
                0..=4 => ALPHABET[r as usize % ALPHABET.len()] as char,
                c => pick_char(c - 3, r),
            })
            .collect();
        let _ = parse(&text);
    }

    #[test]
    fn damaged_documents_never_panic_the_parser(
        words in proptest::collection::vec(proptest::num::u64::ANY, 1..100),
        cut in proptest::num::usize::ANY,
        byte in 0u8..0x80,
    ) {
        // The writer escapes every non-ASCII character, so any byte
        // offset is a char boundary and any ASCII byte keeps UTF-8 valid.
        let doc = tree(&mut words.into_iter(), 0).compact();
        let at = cut % (doc.len() + 1);
        let _ = parse(&doc[..at]);
        let mut bytes = doc.into_bytes();
        if let Some(b) = bytes.get_mut(at) {
            *b = byte;
        }
        let _ = parse(&String::from_utf8(bytes).expect("the writer emits ASCII"));
    }
}

#[test]
fn unpaired_surrogates_are_rejected() {
    for bad in [
        "\"\\ud835\"",
        "\"\\ud835x\"",
        "\"\\ud835\\u0041\"",
        "\"\\udd4f\"",
    ] {
        let err = parse(bad).unwrap_err();
        assert!(err.msg.contains("surrogate"), "{bad}: {err}");
    }
    assert_eq!(
        parse("\"\\ud835\\udd4f\"").unwrap(),
        Json::Str("𝕏".to_string())
    );
}
