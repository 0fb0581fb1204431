//! Declared layouts: the [`Codec`] of each field type, and the three
//! macros that generate both halves of a type's codec from one field list.

use super::{push_bool, push_f64, push_str, push_u64, push_usize, Codec, DecodeError, Reader};
use crate::{Round, SellerId};
use std::borrow::Cow;

impl Codec for u64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        push_u64(out, *self);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u64()
    }
}

impl Codec for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        push_usize(out, *self);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.usize()
    }
}

impl Codec for u32 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        push_u64(out, u64::from(*self));
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u32()
    }
}

/// A finite number; a non-finite one is written `null`, which does not
/// read back (a field that means something by `null` says so with a
/// `with` reader).
impl Codec for f64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        push_f64(out, *self);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.f64()
    }
}

impl Codec for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        push_bool(out, *self);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.bool()
    }
}

impl Codec for String {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        push_str(out, self);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.string().map(Cow::into_owned)
    }
}

/// `[a,b,…]`.
impl<T: Codec> Codec for Vec<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            item.encode(out);
        }
        out.push(b']');
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.vec(T::decode)
    }
}

/// `null` for `None`, which is also what an absent key reads as.
impl<T: Codec> Codec for Option<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Some(value) => value.encode(out),
            None => out.extend_from_slice(b"null"),
        }
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.nullable(T::decode)
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

/// The boxed value's layout.
impl<T: Codec> Codec for Box<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        T::decode(r).map(Box::new)
    }
}

/// The round index.
impl Codec for Round {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        push_usize(out, self.0);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.usize().map(Round)
    }
}

/// The seller index.
impl Codec for SellerId {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        push_usize(out, self.0);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.usize().map(SellerId)
    }
}

/// Declares the [`Codec`](crate::json::Codec) of a struct whose layout is
/// one object, `{"field":value,…}`: every field of the struct, named once,
/// in the order written.
///
/// Each field is written and read through its type's `Codec`. Reading
/// takes the keys in any order, skips unknown keys, and refuses a repeated
/// key or a missing one, unless the type has a value for an absent key
/// ([`Codec::absent`](crate::json::Codec::absent): `None` for an
/// `Option`). A field may say more:
///
/// - `field = 0`: an absent key reads as this literal;
/// - `field with read`: the key's value is read by the function `read`,
///   `fn(&mut Reader) -> Result<T, DecodeError>`, in place of its type's
///   decoder.
#[macro_export]
macro_rules! record {
    ($ty:ident {
        $($field:ident $(= $default:literal)? $(with $read:path)?),+ $(,)?
    }) => {
        impl $crate::json::Codec for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                let Self { $($field),+ } = self;
                $crate::__layout!(@encode out ["{"] $($field),+);
                out.push(b'}');
            }

            fn decode(
                r: &mut $crate::json::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::json::DecodeError> {
                $crate::__layout!(@decode r [Self] $($field $(= $default)? $(with $read)?),+)
            }
        }
    };
}

/// Declares the [`Codec`](crate::json::Codec) of an enum whose layout is
/// externally tagged, `{"Variant":…}`: the variant's tag is the one key.
///
/// The tag is the variant's name, or the literal after `as`. A variant
/// with named fields holds an object of them, declared as in
/// [`record!`](crate::json::record); a variant holding one value,
/// `Variant(Type)`, holds that value's layout. Reading refuses an unknown
/// tag, and anything after the variant's value.
#[macro_export]
macro_rules! tagged {
    ($ty:ident {
        $($variant:ident $(($inner:ty))? $(as $tag:literal)? $({
            $($field:ident $(= $default:literal)? $(with $read:path)?),+ $(,)?
        })?),+ $(,)?
    }) => {
        impl $crate::json::Codec for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                let tag = match self {
                    $(Self::$variant { .. } => $crate::__layout!(@tag $variant $($tag)?),)+
                };
                match self {
                    $(
                        $(Self::$variant(value) => {
                            $crate::json::push_tagged::<$inner>(out, tag, value);
                        })?
                        $(Self::$variant { $($field),+ } => {
                            out.extend_from_slice(b"{\"");
                            out.extend_from_slice(tag.as_bytes());
                            $crate::__layout!(@encode out ["\":{"] $($field),+);
                            out.extend_from_slice(b"}}");
                        })?
                    )+
                }
            }

            fn decode(
                r: &mut $crate::json::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::json::DecodeError> {
                let name = r.begin_variant()?;
                let value = match &*name {
                    $($crate::__layout!(@tag $variant $($tag)?) => {
                        $(Self::$variant(<$inner as $crate::json::Codec>::decode(r)?))?
                        $($crate::__layout!(@decode r [Self::$variant]
                            $($field $(= $default)? $(with $read)?),+)?)?
                    })+
                    other => return Err(r.unknown_variant(other, stringify!($ty))),
                };
                r.end_variant()?;
                Ok(value)
            }
        }
    };
}

/// Declares the [`Codec`](crate::json::Codec) of a tag-first record,
/// `{"key":"tag","field":value,…}`: one struct with one tag, or an enum
/// with one tag per variant (its name, or the literal after `as`).
///
/// The fields are declared as in [`record!`](crate::json::record). The tag
/// is written first but read wherever it sits: decoding reads the tag
/// ahead ([`Reader::read_tag`](crate::json::Reader::read_tag)), then the
/// object through the generated `decode_tagged(r, tag)`, which skips the
/// tag's key with the other unknown keys. A caller that reads the tag
/// itself, to choose among several tag-first types, calls `decode_tagged`
/// directly. An enum also gets `tag(&self)`, its line's tag.
#[macro_export]
macro_rules! tag_first {
    (#[tag = $key:literal] $ty:ident as $tag:literal {
        $($field:ident $(= $default:literal)? $(with $read:path)?),+ $(,)?
    }) => {
        impl $crate::json::Codec for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                let Self { $($field),+ } = self;
                out.extend_from_slice(concat!("{\"", $key, "\":\"", $tag, "\"").as_bytes());
                $crate::__layout!(@encode out [","] $($field),+);
                out.push(b'}');
            }

            $crate::__layout!(@decode_tag_first $key);
        }

        impl $ty {
            #[doc = concat!("Reads the object at `r` as a `", stringify!($ty), "`, whose `",
                $key, "` key, read ahead, is `tag`.")]
            ///
            /// # Errors
            /// Returns the first syntax or layout error, or a `tag` of
            /// another layout.
            pub fn decode_tagged(
                r: &mut $crate::json::Reader<'_>,
                tag: &str,
            ) -> ::std::result::Result<Self, $crate::json::DecodeError> {
                if tag != $tag {
                    return Err(r.error(format_args!(
                        concat!("expected `", $key, "` \"", $tag, "\", got \"{}\""),
                        tag
                    )));
                }
                $crate::__layout!(@decode r [Self] $($field $(= $default)? $(with $read)?),+)
            }
        }
    };
    (#[tag = $key:literal] $ty:ident {
        $($variant:ident $(as $tag:literal)? {
            $($field:ident $(= $default:literal)? $(with $read:path)?),+ $(,)?
        }),+ $(,)?
    }) => {
        impl $crate::json::Codec for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $(Self::$variant { $($field),+ } => {
                        out.extend_from_slice(concat!(
                            "{\"", $key, "\":\"", $crate::__layout!(@tag $variant $($tag)?), "\""
                        ).as_bytes());
                        $crate::__layout!(@encode out [","] $($field),+);
                    })+
                }
                out.push(b'}');
            }

            $crate::__layout!(@decode_tag_first $key);
        }

        impl $ty {
            #[doc = concat!("The `", $key, "` tag of the record's line.")]
            #[must_use]
            pub fn tag(&self) -> &'static str {
                match self {
                    $(Self::$variant { .. } => $crate::__layout!(@tag $variant $($tag)?),)+
                }
            }

            #[doc = concat!("Reads the object at `r` as the `", stringify!($ty),
                "` variant whose `", $key, "` tag, read ahead, is `tag`.")]
            ///
            /// # Errors
            /// Returns the first syntax or layout error, or an unknown `tag`.
            pub fn decode_tagged(
                r: &mut $crate::json::Reader<'_>,
                tag: &str,
            ) -> ::std::result::Result<Self, $crate::json::DecodeError> {
                match tag {
                    $($crate::__layout!(@tag $variant $($tag)?) => $crate::__layout!(
                        @decode r [Self::$variant] $($field $(= $default)? $(with $read)?),+
                    ),)+
                    _ => Err(r.unknown_variant(tag, stringify!($ty))),
                }
            }
        }
    };
}

/// The pieces the layout macros share.
#[doc(hidden)]
#[macro_export]
macro_rules! __layout {
    // Writes `open` and `"first":value` glued together, then
    // `,"field":value` for the rest; the caller closes the object.
    (@encode $out:ident [$($open:tt)*] $first:ident $(, $field:ident)*) => {
        $out.extend_from_slice(
            concat!($($open)*, "\"", stringify!($first), "\":").as_bytes(),
        );
        $crate::json::Codec::encode($first, $out);
        $(
            $out.extend_from_slice(concat!(",\"", stringify!($field), "\":").as_bytes());
            $crate::json::Codec::encode($field, $out);
        )*
    };
    // Reads one object into `ctor { field, … }`: a `Result`.
    (@decode $r:ident [$($ctor:tt)*]
        $($field:ident $(= $default:literal)? $(with $read:path)?),+) => {{
        $(let mut $field = None;)+
        $r.object(&mut |r, key| match key {
            $(stringify!($field) => {
                r.field(&mut $field, key, $crate::__layout!(@read $($read)?))
            })+
            _ => r.skip(),
        })?;
        Ok($($ctor)* { $($field: $crate::__layout!(@take $r $field $($default)?),)+ })
    }};
    (@read) => { $crate::json::Codec::decode };
    (@read $read:path) => { $read };
    (@take $r:ident $field:ident) => { $r.required($field, stringify!($field))? };
    (@take $r:ident $field:ident $default:literal) => { $field.unwrap_or($default) };
    (@tag $variant:ident) => { stringify!($variant) };
    (@tag $variant:ident $tag:literal) => { $tag };
    // A tag-first type's `decode`: the tag, read ahead, picks the layout.
    (@decode_tag_first $key:literal) => {
        fn decode(
            r: &mut $crate::json::Reader<'_>,
        ) -> ::std::result::Result<Self, $crate::json::DecodeError> {
            match r.read_tag($key)? {
                Some(tag) => Self::decode_tagged(r, &tag),
                None => Err(r.error(concat!("missing field `", $key, "`"))),
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::check::check;
    use crate::json::{from_str, to_string, Codec, DecodeError, Reader};
    use crate::{Round, SellerId, SimRng};
    use std::fmt::Debug;

    #[derive(Debug, Clone, PartialEq)]
    struct Row {
        id: u64,
        name: String,
        first: Option<usize>,
        folded: u32,
        score: f64,
        sellers: Vec<SellerId>,
    }

    record! {
        Row { id, name, first, folded = 7, score with read_score, sellers }
    }

    /// A `with` reader: `null` reads as −1.
    fn read_score(r: &mut Reader<'_>) -> Result<f64, DecodeError> {
        r.nullable(Reader::f64).map(|v| v.unwrap_or(-1.0))
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Line {
        Open { round: Round, done: bool },
        Row(Box<Row>),
        Count(u64),
    }

    tagged! {
        Line {
            Open as "open" { round, done },
            Row(Box<Row>),
            Count(u64) as "count",
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Mark {
        Start { round: usize },
        Stop { round: usize, ns: Option<u64> },
    }

    tag_first! {
        #[tag = "kind"]
        Mark {
            Start as "start" { round },
            Stop { round, ns },
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Tick {
        at: u64,
        worker: Option<u64>,
        scores: Vec<f64>,
    }

    tag_first! {
        #[tag = "kind"]
        Tick as "tick" { at, worker, scores }
    }

    fn finite(rng: &mut SimRng) -> f64 {
        loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                return v;
            }
        }
    }

    fn maybe(rng: &mut SimRng) -> Option<u64> {
        rng.bernoulli(0.5).then(|| rng.next_u64())
    }

    fn row(rng: &mut SimRng) -> Row {
        const PIECES: [&str; 8] = ["a", "\"", "\\", "\n", "\u{1}", "é", "😀", "{"];
        Row {
            id: rng.next_u64(),
            name: (0..rng.below(8))
                .map(|_| PIECES[rng.below(8) as usize])
                .collect(),
            first: maybe(rng).map(|v| v as usize),
            folded: rng.next_u64() as u32,
            score: finite(rng),
            sellers: (0..rng.below(5))
                .map(|_| SellerId(rng.next_u64() as usize))
                .collect(),
        }
    }

    fn round_trips<T: Codec + PartialEq + Debug>(value: &T) {
        let text = to_string(value);
        let back: T = from_str(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&back, value, "{text}");
        assert_eq!(to_string(&back), text);
    }

    #[test]
    fn each_shape_round_trips() {
        check(300, row, round_trips);
        check(
            300,
            |rng| match rng.below(3) {
                0 => Line::Open {
                    round: Round(rng.next_u64() as usize),
                    done: rng.bernoulli(0.5),
                },
                1 => Line::Row(Box::new(row(rng))),
                _ => Line::Count(rng.next_u64()),
            },
            round_trips,
        );
        check(
            300,
            |rng| match (rng.next_u64() as usize, rng.bernoulli(0.5)) {
                (round, true) => Mark::Start { round },
                (round, false) => Mark::Stop {
                    round,
                    ns: maybe(rng),
                },
            },
            round_trips,
        );
        check(
            300,
            |rng| Tick {
                at: rng.next_u64(),
                worker: maybe(rng),
                scores: (0..rng.below(5)).map(|_| finite(rng)).collect(),
            },
            round_trips,
        );
    }

    #[test]
    fn each_shape_writes_its_declaration() {
        let row = Row {
            id: 1,
            name: "a".into(),
            first: None,
            folded: 2,
            score: 0.5,
            sellers: vec![SellerId(3)],
        };
        let row_text = r#"{"id":1,"name":"a","first":null,"folded":2,"score":0.5,"sellers":[3]}"#;
        assert_eq!(to_string(&row), row_text);
        let open = Line::Open {
            round: Round(4),
            done: true,
        };
        assert_eq!(to_string(&open), r#"{"open":{"round":4,"done":true}}"#);
        let boxed = Line::Row(Box::new(row));
        assert_eq!(to_string(&boxed), format!(r#"{{"Row":{row_text}}}"#));
        assert_eq!(to_string(&Line::Count(5)), r#"{"count":5}"#);
        let stop = Mark::Stop {
            round: 6,
            ns: Some(7),
        };
        assert_eq!(to_string(&stop), r#"{"kind":"Stop","round":6,"ns":7}"#);
        assert_eq!(
            (stop.tag(), Mark::Start { round: 0 }.tag()),
            ("Stop", "start")
        );
        let tick = Tick {
            at: 8,
            worker: None,
            scores: vec![f64::INFINITY],
        };
        assert_eq!(
            to_string(&tick),
            r#"{"kind":"tick","at":8,"worker":null,"scores":[null]}"#
        );
    }

    #[test]
    fn each_shape_reads_defaults_and_refuses_what_it_does_not_declare() {
        let err = |result: Result<Row, DecodeError>| result.unwrap_err().to_string();
        // An absent `Option` reads as `None`, an absent `= default` field
        // as its literal, and a `with` reader reads its own `null`.
        let row: Row = from_str(r#"{"sellers":[],"score":null,"name":"","id":1}"#).unwrap();
        assert_eq!((row.first, row.folded, row.score), (None, 7, -1.0));
        assert!(
            err(from_str(r#"{"id":1,"name":"","score":1}"#)).contains("missing field `sellers`")
        );
        assert!(err(from_str(
            r#"{"id":1,"id":2,"name":"","score":1,"sellers":[]}"#
        ))
        .contains("duplicate field `id`"));
        // Keys the layout does not declare are skipped.
        let extra = r#"{"id":1,"name":"","score":1,"sellers":[],"cached":{"x":[true]}}"#;
        assert_eq!(from_str::<Row>(extra).unwrap().id, 1);

        // An `as` tag replaces the variant's name; a one-value variant
        // holds its value's layout; an unknown tag is refused.
        let line = |text: &str| from_str::<Line>(text).map_err(|e| e.to_string());
        assert_eq!(line(r#"{"count":3}"#), Ok(Line::Count(3)));
        assert!(line(r#"{"Count":3}"#)
            .unwrap_err()
            .contains("unknown variant `Count` of Line"));
        assert!(line(r#"{"open":{"round":1}}"#)
            .unwrap_err()
            .contains("missing field `done`"));
        assert!(line(r#"{"count":3,"open":{}}"#)
            .unwrap_err()
            .contains("after the variant"));

        // A tag-first record's tag may sit at the end; a wrong, missing or
        // unknown tag is refused.
        let mark = |text: &str| from_str::<Mark>(text).map_err(|e| e.to_string());
        assert_eq!(
            mark(r#"{"round":2,"kind":"Stop"}"#),
            Ok(Mark::Stop { round: 2, ns: None })
        );
        assert!(mark(r#"{"kind":"pause","round":2}"#)
            .unwrap_err()
            .contains("unknown variant `pause` of Mark"));
        assert!(mark(r#"{"round":2}"#)
            .unwrap_err()
            .contains("missing field `kind`"));
        assert!(mark(r#"{"kind":"start","kind":"start","round":2}"#)
            .unwrap_err()
            .contains("duplicate field `kind`"));
        let tick = |text: &str| from_str::<Tick>(text).map_err(|e| e.to_string());
        assert_eq!(
            tick(r#"{"at":1,"scores":[],"kind":"tick"}"#),
            Ok(Tick {
                at: 1,
                worker: None,
                scores: Vec::new(),
            })
        );
        assert!(tick(r#"{"kind":"start","at":1,"scores":[]}"#)
            .unwrap_err()
            .contains(r#"expected `kind` "tick", got "start""#));
        assert!(tick(r#"{"kind":"tick","at":1,"scores":[null]}"#).is_err());
    }
}
