//! The CSTR-like document collection schema.
//!
//! Project Mercury's Computer Science Technical Report database is modeled
//! as bibliographic records with title, author(s), abstract, year, and
//! institution. The short form — what a search result set carries — holds
//! the docid, title, and year; **author is long-form only**, which matches
//! the paper's observation that RTP-style matching generally requires
//! fetching documents (and makes the long-form cost `c_l` matter the way
//! Table 2 shows).

use textjoin_text::doc::TextSchema;

/// Builds the CSTR text schema.
pub(crate) fn cstr_schema() -> TextSchema {
    let mut s = TextSchema::new();
    for (name, alias, short) in [
        ("title", "TI", true),
        ("author", "AU", false),
        ("abstract", "AB", false),
        ("year", "YR", true),
        ("institution", "IN", false),
    ] {
        s.add_field(name, alias, short)
            .expect("five fields fit the short form");
    }
    s
}

/// Institutions for the `institution` field.
pub const INSTITUTIONS: &[&str] = &[
    "CMU", "Stanford", "Berkeley", "MIT", "Wisconsin", "Toronto",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_fields_and_short_form() {
        let s = cstr_schema();
        assert_eq!(s.len(), 5);
        let au = s.field_by_name("author").unwrap();
        assert!(!s.def(au).in_short_form, "author is long-form only");
        let ti = s.field_by_name("title").unwrap();
        assert!(s.def(ti).in_short_form);
        assert_eq!(s.field_by_alias("YR"), s.field_by_name("year"));
    }
}
