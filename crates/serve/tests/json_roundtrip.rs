//! The workspace's one JSON string escaper and the service's parser
//! agree: every string, whatever it holds, survives escape → parse.

use proptest::prelude::*;
use spp_serve::{json::esc, parse, Json};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn escape_then_parse_is_the_identity(
        chars in proptest::collection::vec((0u8..5, proptest::num::u32::ANY), 0..40)
    ) {
        let s: String = chars.into_iter().map(|(c, r)| pick_char(c, r)).collect();
        let doc = format!("{{\"s\": \"{}\"}}", esc(&s));
        prop_assert!(doc.bytes().all(|b| b >= 0x20), "raw control byte in {doc:?}");
        prop_assert_eq!(parse(&doc).unwrap().get("s"), Some(&Json::Str(s)));
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
