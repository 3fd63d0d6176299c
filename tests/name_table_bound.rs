//! The attribute-name table and its bound. Filling the table is
//! process-wide and permanent, so this is its own test binary with one
//! test. Frames never add to the table, however many distinct names
//! they carry, so policy authors and provisioning keep every slot; and
//! once the program and its authors have filled it, the DSL and
//! `AttrName::intern` answer `Err` without growing it, while every name
//! already interned keeps its symbol.

use dacs::pip::StaticAttributes;
use dacs::policy::attr::{AttrName, AttrValue, AttributeId, NameError, MAX_NAMES, MAX_NAME_LEN};
use dacs::policy::dsl::parse_policy;
use dacs::policy::request::RequestContext;
use dacs::wire::codec;

/// A policy whose one rule names `name`.
fn policy_naming(name: &str) -> String {
    format!(
        r#"
policy "p" deny-unless-permit {{
  rule "r" permit {{ target {{ subject "{name}" == "x"; }} }}
}}
"#
    )
}

#[test]
fn frames_never_fill_the_table_and_past_its_bound_only_new_names_err() {
    let role = AttrName::intern("role").unwrap();
    let dept = AttrName::intern("dept").unwrap();
    let plain = RequestContext::basic("alice", "ehr/1", "read");
    let known = plain.clone().with_subject_attr("dept", "x");
    // A request's frame whose `junk0000` is overwritten by eight hex
    // digits: a name no one has interned.
    let template = codec::to_bytes(&plain.clone().with_subject_attr("junk0000", "x")).unwrap();
    let at = template.windows(8).position(|w| w == b"junk0000").unwrap();
    let unknown = |i: usize| {
        let mut frame = template.clone();
        frame[at..at + 8].copy_from_slice(format!("{i:08x}").as_bytes());
        frame
    };

    // More distinct names than the table holds, one frame each: every
    // frame decodes without its unknown entry, and the table stays put.
    let before = AttrName::interned();
    for i in 0..=MAX_NAMES {
        let decoded: RequestContext = codec::from_bytes(&unknown(i)).unwrap();
        assert_eq!(decoded, plain, "frame {i}");
    }
    let bare = codec::to_bytes(&"00000000").unwrap();
    assert!(codec::from_bytes::<AttrName>(&bare).is_err());
    assert_eq!(AttrName::interned(), before);
    assert_eq!(AttrName::lookup("00000000"), None);

    // So an author can still name a new attribute, and provisioning one
    // does not panic.
    parse_policy(&policy_naming("clearance")).expect("a new name while the table has room");
    let store = StaticAttributes::new();
    store.add_subject_attr("bob", "badge", "blue");
    assert_eq!(
        store.attributes_of("bob"),
        [("badge".to_string(), AttrValue::from("blue"))]
    );

    // Now fill it the only way it fills: by interning.
    let mut filled = 0;
    loop {
        match AttrName::intern(&format!("filler-{filled}")) {
            Ok(_) => filled += 1,
            Err(e) => {
                assert_eq!(e, NameError::TableFull);
                break;
            }
        }
    }
    assert!(filled > 0);
    assert_eq!(AttrName::interned(), MAX_NAMES);

    // Known names keep their symbols and their text.
    assert_eq!(AttrName::intern("role"), Ok(role));
    assert_eq!(AttrName::ROLE, role);
    assert_eq!(AttrName::intern("dept"), Ok(dept));
    assert_eq!(dept.as_str(), "dept");
    assert_eq!(AttrName::intern("filler-0").unwrap().as_str(), "filler-0");

    // A new name is refused where it would be interned, and the table
    // does not grow; a frame's unknown name is still only dropped.
    assert_eq!(AttrName::intern("one-more"), Err(NameError::TableFull));
    let refused =
        parse_policy(&policy_naming("also-never-seen")).expect_err("a new name past the bound");
    assert!(refused.message.contains("full"), "{refused}");
    let long = "n".repeat(MAX_NAME_LEN + 1);
    assert_eq!(
        AttrName::intern(&long),
        Err(NameError::TooLong(MAX_NAME_LEN + 1))
    );
    let decoded: RequestContext = codec::from_bytes(&unknown(MAX_NAMES + 1)).unwrap();
    assert_eq!(decoded, plain);
    assert_eq!(AttrName::interned(), MAX_NAMES);

    // A request over known names is still built and decoded, and a
    // policy over known names still parses.
    let back: RequestContext = codec::from_bytes(&codec::to_bytes(&known).unwrap()).unwrap();
    assert_eq!(back, known);
    assert!(back.contains(&AttributeId::subject("dept")));
    parse_policy(&policy_naming("dept")).expect("a known name past the bound");
}
