//! An XML-like *verbose* encoder modelling the SOAP/XACML message
//! encoding of the paper's environment.
//!
//! The paper (§3.2 "Communication Performance") observes that
//! XML-encoded policies and security-enhanced messages are significantly
//! larger than binary encodings. This serializer produces a faithful
//! XML-style rendering of any `Serialize` value — element tags per
//! field, numbers in decimal text, binary in base64 — so experiments can
//! measure the real size ratio between compact and verbose encodings of
//! identical protocol messages.
//!
//! Encoding-only by design: functional message exchange in the simulator
//! always uses [`crate::codec`]; this encoder exists to measure what the
//! same message *would* cost as XML (documented in ARCHITECTURE.md,
//! *Substitutions*).

use crate::base64;
use serde::{ser, Serialize};
use std::fmt;

/// Error type for the XML-ish encoder.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct XmlishError(String);

impl fmt::Display for XmlishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for XmlishError {}

impl ser::Error for XmlishError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        XmlishError(msg.to_string())
    }
}

/// Renders a value as XML-ish text.
///
/// # Errors
///
/// Fails only for unsized sequences, which protocol messages never
/// contain.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, XmlishError> {
    let mut ser = XmlSerializer {
        out: String::with_capacity(256),
    };
    value.serialize(&mut ser)?;
    Ok(ser.out)
}

/// Size in bytes of the XML-ish rendering (the verbose-codec size used
/// by wire accounting).
///
/// # Errors
///
/// Same conditions as [`to_string`].
pub fn encoded_len<T: Serialize>(value: &T) -> Result<usize, XmlishError> {
    Ok(to_string(value)?.len())
}

struct XmlSerializer {
    out: String,
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

impl XmlSerializer {
    fn scalar(&mut self, ty: &str, value: impl fmt::Display) {
        self.out.push('<');
        self.out.push_str(ty);
        self.out.push('>');
        let _ = std::fmt::Write::write_fmt(&mut self.out, format_args!("{value}"));
        self.out.push_str("</");
        self.out.push_str(ty);
        self.out.push('>');
    }

    fn open(&mut self, tag: &str) {
        self.out.push('<');
        self.out.push_str(tag);
        self.out.push('>');
    }

    fn close(&mut self, tag: &str) {
        self.out.push_str("</");
        self.out.push_str(tag);
        self.out.push('>');
    }
}

impl<'a> ser::Serializer for &'a mut XmlSerializer {
    type Ok = ();
    type Error = XmlishError;
    type SerializeSeq = Compound<'a>;
    type SerializeTuple = Compound<'a>;
    type SerializeTupleStruct = Compound<'a>;
    type SerializeTupleVariant = CompoundOuter<'a>;
    type SerializeMap = Compound<'a>;
    type SerializeStruct = Compound<'a>;
    type SerializeStructVariant = CompoundOuter<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), XmlishError> {
        self.scalar("boolean", v);
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), XmlishError> {
        self.scalar("byte", v);
        Ok(())
    }
    fn serialize_i16(self, v: i16) -> Result<(), XmlishError> {
        self.scalar("short", v);
        Ok(())
    }
    fn serialize_i32(self, v: i32) -> Result<(), XmlishError> {
        self.scalar("int", v);
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<(), XmlishError> {
        self.scalar("long", v);
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), XmlishError> {
        self.scalar("unsignedByte", v);
        Ok(())
    }
    fn serialize_u16(self, v: u16) -> Result<(), XmlishError> {
        self.scalar("unsignedShort", v);
        Ok(())
    }
    fn serialize_u32(self, v: u32) -> Result<(), XmlishError> {
        self.scalar("unsignedInt", v);
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<(), XmlishError> {
        self.scalar("unsignedLong", v);
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), XmlishError> {
        self.scalar("float", v);
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), XmlishError> {
        self.scalar("double", v);
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), XmlishError> {
        let mut buf = [0u8; 4];
        self.serialize_str(v.encode_utf8(&mut buf))
    }
    fn serialize_str(self, v: &str) -> Result<(), XmlishError> {
        self.open("string");
        escape_into(v, &mut self.out);
        self.close("string");
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), XmlishError> {
        self.open("base64Binary");
        self.out.push_str(&base64::encode(v));
        self.close("base64Binary");
        Ok(())
    }
    fn serialize_none(self) -> Result<(), XmlishError> {
        self.out.push_str("<nil/>");
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), XmlishError> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), XmlishError> {
        self.out.push_str("<unit/>");
        Ok(())
    }
    fn serialize_unit_struct(self, name: &'static str) -> Result<(), XmlishError> {
        self.out.push('<');
        self.out.push_str(name);
        self.out.push_str("/>");
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<(), XmlishError> {
        self.open(name);
        self.out.push('<');
        self.out.push_str(variant);
        self.out.push_str("/>");
        self.close(name);
        Ok(())
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        value: &T,
    ) -> Result<(), XmlishError> {
        self.open(name);
        value.serialize(&mut *self)?;
        self.close(name);
        Ok(())
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), XmlishError> {
        self.open(name);
        self.open(variant);
        value.serialize(&mut *self)?;
        self.close(variant);
        self.close(name);
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a>, XmlishError> {
        self.open("sequence");
        Ok(Compound {
            ser: self,
            closing: "sequence",
            item_tag: Some("item"),
        })
    }
    fn serialize_tuple(self, _len: usize) -> Result<Compound<'a>, XmlishError> {
        self.open("tuple");
        Ok(Compound {
            ser: self,
            closing: "tuple",
            item_tag: Some("item"),
        })
    }
    fn serialize_tuple_struct(
        self,
        name: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, XmlishError> {
        self.open(name);
        Ok(Compound {
            ser: self,
            closing: name,
            item_tag: Some("item"),
        })
    }
    fn serialize_tuple_variant(
        self,
        name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<CompoundOuter<'a>, XmlishError> {
        self.open(name);
        self.open(variant);
        Ok(Compound {
            ser: self,
            closing: variant, // `name` closed via closing_outer
            item_tag: Some("item"),
        }
        .with_outer(name))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a>, XmlishError> {
        self.open("map");
        Ok(Compound {
            ser: self,
            closing: "map",
            item_tag: Some("entry"),
        })
    }
    fn serialize_struct(
        self,
        name: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, XmlishError> {
        self.open(name);
        Ok(Compound {
            ser: self,
            closing: name,
            item_tag: None,
        })
    }
    fn serialize_struct_variant(
        self,
        name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<CompoundOuter<'a>, XmlishError> {
        self.open(name);
        self.open(variant);
        Ok(Compound {
            ser: self,
            closing: variant,
            item_tag: None,
        }
        .with_outer(name))
    }
}

/// Compound serialization state for the XML-ish encoder.
pub(crate) struct Compound<'a> {
    ser: &'a mut XmlSerializer,
    closing: &'static str,
    item_tag: Option<&'static str>,
}

impl<'a> Compound<'a> {
    fn with_outer(self, outer: &'static str) -> CompoundOuter<'a> {
        CompoundOuter { inner: self, outer }
    }

    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), XmlishError> {
        if let Some(tag) = self.item_tag {
            self.ser.open(tag);
            value.serialize(&mut *self.ser)?;
            self.ser.close(tag);
        } else {
            value.serialize(&mut *self.ser)?;
        }
        Ok(())
    }

    fn named_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), XmlishError> {
        self.ser.open(key);
        value.serialize(&mut *self.ser)?;
        self.ser.close(key);
        Ok(())
    }

    fn finish(self) -> &'a mut XmlSerializer {
        self.ser.close(self.closing);
        self.ser
    }
}

impl<'a> ser::SerializeSeq for Compound<'a> {
    type Ok = ();
    type Error = XmlishError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), XmlishError> {
        self.element(value)
    }
    fn end(self) -> Result<(), XmlishError> {
        self.finish();
        Ok(())
    }
}

impl<'a> ser::SerializeTuple for Compound<'a> {
    type Ok = ();
    type Error = XmlishError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), XmlishError> {
        self.element(value)
    }
    fn end(self) -> Result<(), XmlishError> {
        self.finish();
        Ok(())
    }
}

impl<'a> ser::SerializeTupleStruct for Compound<'a> {
    type Ok = ();
    type Error = XmlishError;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), XmlishError> {
        self.element(value)
    }
    fn end(self) -> Result<(), XmlishError> {
        self.finish();
        Ok(())
    }
}

impl<'a> ser::SerializeMap for Compound<'a> {
    type Ok = ();
    type Error = XmlishError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), XmlishError> {
        self.ser.open("key");
        key.serialize(&mut *self.ser)?;
        self.ser.close("key");
        Ok(())
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), XmlishError> {
        self.ser.open("value");
        value.serialize(&mut *self.ser)?;
        self.ser.close("value");
        Ok(())
    }
    fn end(self) -> Result<(), XmlishError> {
        self.finish();
        Ok(())
    }
}

impl<'a> ser::SerializeStruct for Compound<'a> {
    type Ok = ();
    type Error = XmlishError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), XmlishError> {
        self.named_field(key, value)
    }
    fn end(self) -> Result<(), XmlishError> {
        self.finish();
        Ok(())
    }
}

/// Compound with an extra outer tag (variants).
pub(crate) struct CompoundOuter<'a> {
    inner: Compound<'a>,
    outer: &'static str,
}

impl<'a> ser::SerializeTupleVariant for CompoundOuter<'a> {
    type Ok = ();
    type Error = XmlishError;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), XmlishError> {
        self.inner.element(value)
    }
    fn end(self) -> Result<(), XmlishError> {
        let outer = self.outer;
        let ser = self.inner.finish();
        ser.close(outer);
        Ok(())
    }
}

impl<'a> ser::SerializeStructVariant for CompoundOuter<'a> {
    type Ok = ();
    type Error = XmlishError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), XmlishError> {
        self.inner.named_field(key, value)
    }
    fn end(self) -> Result<(), XmlishError> {
        let outer = self.outer;
        let ser = self.inner.finish();
        ser.close(outer);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Query {
        subject: String,
        resource: String,
        action: String,
        urgent: bool,
    }

    #[test]
    fn struct_renders_with_field_tags() {
        let q = Query {
            subject: "alice".into(),
            resource: "ehr/1".into(),
            action: "read".into(),
            urgent: false,
        };
        let xml = to_string(&q).unwrap();
        assert!(xml.starts_with("<Query>"));
        assert!(xml.contains("<subject><string>alice</string></subject>"));
        assert!(xml.contains("<urgent><boolean>false</boolean></urgent>"));
        assert!(xml.ends_with("</Query>"));
    }

    #[test]
    fn escaping() {
        let xml = to_string(&"<a&b>".to_string()).unwrap();
        assert_eq!(xml, "<string>&lt;a&amp;b&gt;</string>");
    }

    #[test]
    fn verbose_exceeds_compact() {
        let q = Query {
            subject: "alice".into(),
            resource: "ehr/records/42".into(),
            action: "read".into(),
            urgent: true,
        };
        let compact = crate::codec::to_bytes(&q).unwrap().len();
        let verbose = encoded_len(&q).unwrap();
        assert!(
            verbose > 3 * compact,
            "verbose {verbose} should dwarf compact {compact}"
        );
    }

    #[derive(Serialize)]
    enum Kind {
        Plain,
        Pair(u32, u32),
        Rec { x: u8 },
        Wrapped(String),
    }

    #[test]
    fn enum_variants_render() {
        assert_eq!(to_string(&Kind::Plain).unwrap(), "<Kind><Plain/></Kind>");
        assert_eq!(
            to_string(&Kind::Pair(1, 2)).unwrap(),
            "<Kind><Pair><item><unsignedInt>1</unsignedInt></item>\
<item><unsignedInt>2</unsignedInt></item></Pair></Kind>"
        );
        assert_eq!(
            to_string(&Kind::Rec { x: 3 }).unwrap(),
            "<Kind><Rec><x><unsignedByte>3</unsignedByte></x></Rec></Kind>"
        );
        assert!(to_string(&Kind::Wrapped("w".into()))
            .unwrap()
            .contains("<Wrapped><string>w</string></Wrapped>"));
    }

    #[test]
    fn sequences_and_options() {
        let xml = to_string(&vec![1u8, 2]).unwrap();
        assert_eq!(
            xml,
            "<sequence><item><unsignedByte>1</unsignedByte></item>\
<item><unsignedByte>2</unsignedByte></item></sequence>"
        );
        assert_eq!(to_string(&Option::<u8>::None).unwrap(), "<nil/>");
    }

    #[test]
    fn binary_becomes_base64() {
        // Without serde_bytes, Vec<u8> serializes as a sequence; emulate
        // bytes by serializing a slice through serialize_bytes directly.
        struct Raw<'a>(&'a [u8]);
        impl Serialize for Raw<'_> {
            fn serialize<S: ser::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_bytes(self.0)
            }
        }
        let xml = to_string(&Raw(b"Man")).unwrap();
        assert_eq!(xml, "<base64Binary>TWFu</base64Binary>");
    }
}
