//! Documents, text fields, and result forms.
//!
//! The paper's model (Section 2.1): a text retrieval system manages a
//! collection of documents, each uniquely identified by a *docid*. A document
//! consists of a set of *text fields* (author, title, abstract, date, ...).
//! Searches return the *short form* (docid plus a subset of the fields);
//! the full document (*long form*) is retrievable separately by docid.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Unique document identifier within a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc{}", self.0)
    }
}

/// Identifier of a text field within a collection's [`TextSchema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldId(pub u16);

/// Schema of a document collection: the named text fields, which of them are
/// included in the short form, and the short search aliases (`TI`, `AU`, ...)
/// used in the Mercury-style query syntax.
#[derive(Debug, Clone, Default)]
pub struct TextSchema {
    fields: Vec<FieldDef>,
    /// Bit `i` is set iff `FieldId(i)` is in the short form. Every result
    /// set and [`ShortDoc`] carries a copy, so checking a field costs no
    /// schema lookup and sharing a document costs no second handle.
    short_mask: u64,
}

/// Why [`TextSchema::add_field`] refused a field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// The field asked for the short form, which already spans the first
    /// 64 fields of the schema.
    ShortFormFull {
        /// The refused field's name.
        field: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::ShortFormFull { field } => write!(
                f,
                "short-form field {field:?} is past the first 64 fields of its schema"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Definition of one text field.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Full field name, e.g. `"title"`.
    pub name: String,
    /// Search alias, e.g. `"TI"`. Matched case-insensitively by the parser.
    pub alias: String,
    /// Whether this field's values are included in short-form results.
    pub in_short_form: bool,
}

impl TextSchema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a field and returns its [`FieldId`].
    ///
    /// # Errors
    /// [`SchemaError::ShortFormFull`] if `in_short_form` is set on a field
    /// past the first 64 of the schema: the short form is a fixed, small
    /// projection, and a [`ShortDoc`] names its fields in one machine
    /// word. The schema is left as it was.
    pub fn add_field(
        &mut self,
        name: impl Into<String>,
        alias: impl Into<String>,
        in_short_form: bool,
    ) -> Result<FieldId, SchemaError> {
        let id = FieldId(self.fields.len() as u16);
        if in_short_form {
            if u32::from(id.0) >= u64::BITS {
                return Err(SchemaError::ShortFormFull { field: name.into() });
            }
            self.short_mask |= 1 << id.0;
        }
        self.fields.push(FieldDef {
            name: name.into(),
            alias: alias.into(),
            in_short_form,
        });
        Ok(id)
    }

    /// A bibliographic schema modeled on the CSTR database served by Project
    /// Mercury: `title` (TI), `author` (AU), `abstract` (AB), `year` (YR),
    /// `institution` (IN). Title, author and year are in the short form.
    pub fn bibliographic() -> Self {
        let mut s = Self::new();
        for (name, alias, short) in [
            ("title", "TI", true),
            ("author", "AU", true),
            ("abstract", "AB", false),
            ("year", "YR", true),
            ("institution", "IN", false),
        ] {
            s.add_field(name, alias, short)
                .expect("five fields fit the short form");
        }
        s
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Looks up a field by full name (case-insensitive).
    pub fn field_by_name(&self, name: &str) -> Option<FieldId> {
        self.fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
            .map(|i| FieldId(i as u16))
    }

    /// Looks up a field by search alias (case-insensitive), e.g. `"TI"`.
    pub fn field_by_alias(&self, alias: &str) -> Option<FieldId> {
        self.fields
            .iter()
            .position(|f| f.alias.eq_ignore_ascii_case(alias))
            .map(|i| FieldId(i as u16))
    }

    /// Resolves either a full name or an alias to a field id.
    pub fn resolve(&self, name_or_alias: &str) -> Option<FieldId> {
        self.field_by_name(name_or_alias)
            .or_else(|| self.field_by_alias(name_or_alias))
    }

    /// Returns the definition of `id`.
    ///
    /// # Panics
    /// Panics if `id` is not part of this schema.
    pub fn def(&self, id: FieldId) -> &FieldDef {
        &self.fields[id.0 as usize]
    }

    /// Iterates over `(FieldId, &FieldDef)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, &FieldDef)> {
        self.fields
            .iter()
            .enumerate()
            .map(|(i, f)| (FieldId(i as u16), f))
    }
}

/// A document: a docid plus values for (a subset of) the schema's fields.
/// A field may hold multiple values (e.g. several authors), mirroring the
/// set-valued attributes (`author {varchar}`) in the paper's `create table
/// mercury` example.
///
/// A document is a shared handle on its values: `clone` copies no string,
/// so the stored document, its short forms, replicas and retrieved long
/// forms are one allocation. A write to shared values copies them first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Document {
    values: Arc<BTreeMap<FieldId, Vec<String>>>,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a value to `field`.
    pub fn push(&mut self, field: FieldId, value: impl Into<String>) -> &mut Self {
        let values = Arc::make_mut(&mut self.values);
        values.entry(field).or_default().push(value.into());
        self
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, field: FieldId, value: impl Into<String>) -> Self {
        self.push(field, value);
        self
    }

    /// Values stored in `field` (empty slice if absent).
    pub fn values(&self, field: FieldId) -> &[String] {
        self.values.get(&field).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over `(FieldId, &[values])`.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, &[String])> {
        self.values.iter().map(|(k, v)| (*k, v.as_slice()))
    }

    /// Total number of field values across all fields.
    pub fn value_count(&self) -> usize {
        self.values.values().map(Vec::len).sum()
    }
}

/// Documents per chunk of a [`DocStore`].
const CHUNK: usize = 1024;

/// A collection's documents, append-only: `Arc` chunks of [`CHUNK`]
/// documents behind one `Arc`. Cloning copies that one handle, so a result
/// set or a replica holds the whole store for one reference count. A push
/// to a shared store copies the chunk handles and at most the tail chunk's
/// document handles; every other chunk stays shared.
#[derive(Clone, Default)]
pub(crate) struct DocStore {
    chunks: Arc<Vec<Arc<Vec<Document>>>>,
}

impl DocStore {
    /// Number of documents.
    pub(crate) fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |tail| (self.chunks.len() - 1) * CHUNK + tail.len())
    }

    /// Document `i`, or `None` past the end.
    pub(crate) fn get(&self, i: usize) -> Option<&Document> {
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// Document `i`, which a result set placed there when it found it: the
    /// store only grows, so it is still there.
    fn nth(&self, i: usize) -> &Document {
        &self.chunks[i / CHUNK][i % CHUNK]
    }

    /// Appends `doc` as document `len()`.
    pub(crate) fn push(&mut self, doc: Document) {
        let chunks = Arc::make_mut(&mut self.chunks);
        match chunks.last_mut() {
            Some(tail) if tail.len() < CHUNK => Arc::make_mut(tail).push(doc),
            _ => chunks.push(Arc::new(vec![doc])),
        }
    }
}

impl fmt::Debug for DocStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.chunks.iter().flat_map(|c| c.iter())).finish()
    }
}

/// Whether `mask` shows `field` in a short form.
fn shows(mask: u64, field: FieldId) -> bool {
    u32::from(field.0) < u64::BITS && mask & (1 << field.0) != 0
}

/// One short form, borrowed from the result set or [`ShortDoc`] that holds
/// its document: the docid plus the short-form fields. (Paper, Section
/// 2.1.)
///
/// Nothing on this type — accessors, `==`, `Debug` — reaches a long-form
/// field; those still cost a
/// [`retrieve`](crate::server::TextServer::retrieve).
pub struct ShortRef<'a> {
    /// The document's id, always present.
    pub id: DocId,
    doc: Held<'a>,
    short_mask: u64,
}

/// Where a [`ShortRef`]'s document is: in a result set's store, looked up
/// when a field is read, or behind a [`ShortDoc`]'s own handle.
#[derive(Clone, Copy)]
enum Held<'a> {
    Stored(&'a DocStore, DocId),
    Owned(&'a Document),
}

impl<'a> ShortRef<'a> {
    fn doc(&self) -> &'a Document {
        match self.doc {
            Held::Stored(store, local) => store.nth(local.0 as usize),
            Held::Owned(doc) => doc,
        }
    }

    /// Values of `field` in this short record (empty if not short-form).
    pub fn values(&self, field: FieldId) -> &'a [String] {
        if shows(self.short_mask, field) {
            self.doc().values(field)
        } else {
            &[]
        }
    }

    /// Iterates over the `(FieldId, &[values])` this short record carries.
    pub fn short_form_fields(&self) -> impl Iterator<Item = (FieldId, &'a [String])> + 'a {
        let mask = self.short_mask;
        self.doc().iter().filter(move |(f, _)| shows(mask, *f))
    }

    /// The owned form: a handle on the same document.
    pub fn to_owned(&self) -> ShortDoc {
        ShortDoc {
            id: self.id,
            doc: self.doc().clone(),
            short_mask: self.short_mask,
        }
    }
}

impl PartialEq for ShortRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.short_form_fields().eq(other.short_form_fields())
    }
}

impl Eq for ShortRef<'_> {}

impl fmt::Debug for ShortRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: BTreeMap<_, _> = self.short_form_fields().collect();
        f.debug_struct("ShortDoc")
            .field("id", &self.id)
            .field("fields", &fields)
            .finish()
    }
}

/// A short form that owns a handle on its document, for a caller that
/// keeps it past the result set it came in. It reads, compares and prints
/// exactly as its [`ShortRef`] does.
#[derive(Clone)]
pub struct ShortDoc {
    /// The document's id, always present.
    pub id: DocId,
    doc: Document,
    short_mask: u64,
}

impl ShortDoc {
    /// The short form of `doc` under `schema`, identified as `id`.
    pub(crate) fn new(id: DocId, doc: Document, schema: &TextSchema) -> Self {
        Self {
            id,
            doc,
            short_mask: schema.short_mask,
        }
    }

    /// This short form, borrowed.
    pub fn view(&self) -> ShortRef<'_> {
        ShortRef {
            id: self.id,
            doc: Held::Owned(&self.doc),
            short_mask: self.short_mask,
        }
    }

    /// Values of `field` in this short record (empty if not short-form).
    pub fn values(&self, field: FieldId) -> &[String] {
        self.view().values(field)
    }

    /// Iterates over the `(FieldId, &[values])` this short record carries.
    pub fn short_form_fields(&self) -> impl Iterator<Item = (FieldId, &[String])> {
        self.view().short_form_fields()
    }
}

impl PartialEq for ShortDoc {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for ShortDoc {}

impl fmt::Debug for ShortDoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// The short forms of a search result set, in ascending order of the ids
/// they report: a view on the document stores the hits live in.
///
/// A result holds one handle per store — one for a lone server, at most
/// one per shard after a gather — and each hit's id and place, so building
/// one takes no reference on any document. A short form is resolved when
/// it is read: [`iter`](Self::iter) borrows each as a [`ShortRef`], and
/// iterating by value hands out owned [`ShortDoc`]s.
#[derive(Clone, Default)]
pub struct ShortForms {
    /// The ids the hits report, ascending.
    ids: Vec<DocId>,
    /// Per hit, its store and its id there. Empty when every hit is its
    /// own id in `stores[0]`, as a lone server's are.
    places: Vec<(u32, DocId)>,
    stores: Vec<DocStore>,
    short_mask: u64,
}

impl ShortForms {
    /// The hits `ids` of `store`, under `schema`.
    pub(crate) fn new(ids: Vec<DocId>, store: &DocStore, schema: &TextSchema) -> Self {
        Self {
            ids,
            places: Vec::new(),
            stores: vec![store.clone()],
            short_mask: schema.short_mask,
        }
    }

    /// Number of hits.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing matched.
    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The ids the hits report, ascending.
    pub fn ids(&self) -> &[DocId] {
        &self.ids
    }

    /// The ids, by value.
    pub(crate) fn into_ids(self) -> Vec<DocId> {
        self.ids
    }

    /// Hit `i`'s store and its id there.
    fn place(&self, i: usize) -> (u32, DocId) {
        self.places.get(i).copied().unwrap_or((0, self.ids[i]))
    }

    /// Hit `i`'s short form.
    fn at(&self, i: usize) -> ShortRef<'_> {
        let (store, local) = self.place(i);
        ShortRef {
            id: self.ids[i],
            doc: Held::Stored(&self.stores[store as usize], local),
            short_mask: self.short_mask,
        }
    }

    /// The short forms, borrowed, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ShortRef<'_>> {
        (0..self.len()).map(|i| self.at(i))
    }

    /// Keeps the hits `report` names an id for, renamed to it, in
    /// ascending order of the new ids.
    pub(crate) fn rename(&mut self, report: impl Fn(DocId) -> Option<DocId>) {
        let hits = (0..self.len())
            .filter_map(|i| Some((report(self.ids[i])?, self.place(i))))
            .collect();
        self.set_hits(hits);
    }

    /// Replaces the hits with `hits` (reported id, place), sorted by id.
    fn set_hits(&mut self, mut hits: Vec<(DocId, (u32, DocId))>) {
        hits.sort_unstable_by_key(|&(id, _)| id);
        (self.ids, self.places) = hits.into_iter().unzip();
    }

    /// One result set of the hits of `parts`, whose ids are disjoint, in
    /// ascending order. Each part's stores are kept, once; an empty part
    /// adds none.
    pub(crate) fn merge(parts: impl IntoIterator<Item = ShortForms>) -> ShortForms {
        let mut out = ShortForms::default();
        let mut hits = Vec::new();
        for part in parts.into_iter().filter(|p| !p.is_empty()) {
            let base = out.stores.len() as u32;
            hits.extend((0..part.len()).map(|i| {
                let (store, local) = part.place(i);
                (part.ids[i], (base + store, local))
            }));
            out.stores.extend(part.stores);
            out.short_mask = part.short_mask;
        }
        out.set_hits(hits);
        out
    }
}

impl PartialEq for ShortForms {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for ShortForms {}

impl fmt::Debug for ShortForms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl IntoIterator for ShortForms {
    type Item = ShortDoc;
    type IntoIter = std::vec::IntoIter<ShortDoc>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().map(|r| r.to_owned()).collect::<Vec<_>>().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Document {
        /// Whether both are handles on the same stored values (`==`
        /// compares content).
        pub(crate) fn ptr_eq(&self, other: &Self) -> bool {
            Arc::ptr_eq(&self.values, &other.values)
        }
    }

    fn schema() -> TextSchema {
        TextSchema::bibliographic()
    }

    #[test]
    fn schema_lookup() {
        let s = schema();
        assert_eq!(s.len(), 5);
        let ti = s.field_by_name("title").unwrap();
        assert_eq!(s.field_by_alias("ti"), Some(ti));
        assert_eq!(s.field_by_alias("TI"), Some(ti));
        assert_eq!(s.resolve("TITLE"), Some(ti));
        assert_eq!(s.resolve("TI"), Some(ti));
        assert_eq!(s.resolve("nope"), None);
        assert_eq!(s.def(ti).name, "title");
    }

    #[test]
    fn short_form_fields_marked() {
        let s = schema();
        let short: Vec<FieldId> = s
            .iter()
            .filter(|(_, f)| f.in_short_form)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(short.len(), 3); // title, author, year
        assert!(short.contains(&s.field_by_name("title").unwrap()));
        assert!(!short.contains(&s.field_by_name("abstract").unwrap()));
    }

    #[test]
    fn document_multivalued_fields() {
        let s = schema();
        let au = s.field_by_name("author").unwrap();
        let ti = s.field_by_name("title").unwrap();
        let d = Document::new()
            .with(ti, "Belief Update in Practice")
            .with(au, "Radhika")
            .with(au, "Garcia");
        assert_eq!(d.values(au), ["Radhika", "Garcia"]);
        assert_eq!(d.values(ti).len(), 1);
        assert_eq!(d.value_count(), 3);
    }

    #[test]
    fn short_form_projection_drops_long_fields() {
        let s = schema();
        let ti = s.field_by_name("title").unwrap();
        let ab = s.field_by_name("abstract").unwrap();
        let d = Document::new()
            .with(ti, "A Title")
            .with(ab, "A very long abstract ...");
        let sf = ShortDoc::new(DocId(7), d, &s);
        assert_eq!(sf.id, DocId(7));
        assert_eq!(sf.values(ti), ["A Title"]);
        assert!(sf.values(ab).is_empty());
        assert!(
            sf.values(FieldId(999)).is_empty(),
            "unknown field is not short-form"
        );
        let shown: Vec<FieldId> = sf.short_form_fields().map(|(f, _)| f).collect();
        assert_eq!(shown, [ti]);
    }

    #[test]
    fn short_form_never_exposes_long_fields() {
        // Two documents that differ only in the abstract: their short forms
        // are indistinguishable — by `==`, by `Debug`, by iteration — and
        // neither rendering leaks a word of the long field.
        let s = schema();
        let ti = s.field_by_name("title").unwrap();
        let yr = s.field_by_name("year").unwrap();
        let ab = s.field_by_name("abstract").unwrap();
        let base = Document::new().with(ti, "A Title").with(yr, "1995");
        let a = ShortDoc::new(DocId(3), base.clone().with(ab, "secret alpha"), &s);
        let b = ShortDoc::new(DocId(3), base.clone().with(ab, "secret beta"), &s);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            format!("{a:?}"),
            r#"ShortDoc { id: DocId(3), fields: {FieldId(0): ["A Title"], FieldId(3): ["1995"]} }"#
        );
        assert!(a.short_form_fields().eq(b.short_form_fields()));
        // ... apart from `id`, and from a short-form field.
        let other_id = ShortDoc::new(DocId(4), base.clone(), &s);
        assert_ne!(a, other_id);
        let other_title = ShortDoc::new(DocId(3), base.with(ti, "Another"), &s);
        assert_ne!(a, other_title);
    }

    /// A server over `n` documents that all hold the title word "shared".
    fn shared_server(n: usize) -> crate::server::TextServer {
        let s = schema();
        let ti = s.field_by_name("title").unwrap();
        let mut c = crate::index::Collection::new(s);
        for i in 0..n {
            c.add_document(Document::new().with(ti, format!("shared {i}")));
        }
        crate::server::TextServer::new(c)
    }

    #[test]
    fn short_form_shares_the_document() {
        // A result holds the store, not a handle per hit.
        let server = shared_server(2 * CHUNK + 5);
        let ti = FieldId(0);
        let stored = |i: u32| server.collection().document(DocId(i)).unwrap();
        let r = server.search_str("TI='shared'").unwrap();
        assert_eq!(r.len(), 2 * CHUNK + 5);
        assert_eq!(r.docs.stores.len(), 1, "one store handle");
        for i in 0..r.len() as u32 {
            assert_eq!(Arc::strong_count(&stored(i).values), 1, "doc {i}: no handle per hit");
        }
        // A read resolves into the stored document, copying nothing.
        for (hit, i) in r.docs.iter().zip(0..) {
            assert_eq!(hit.id, DocId(i));
            assert!(std::ptr::eq(hit.values(ti), stored(i).values(ti)));
        }
        // The owned form is a handle on the same document.
        let owned = r.docs.iter().nth(3).unwrap().to_owned();
        assert_eq!(Arc::strong_count(&stored(3).values), 2);
        assert!(std::ptr::eq(owned.values(ti), stored(3).values(ti)));
        assert_eq!(owned.view(), r.docs.iter().nth(3).unwrap());
        assert_eq!(owned, server.collection().short_form(DocId(3)).unwrap());
    }

    #[test]
    fn a_push_under_a_live_result_copies_at_most_the_tail_chunk() {
        let mut server = shared_server(2 * CHUNK + 5);
        let before = server.search_str("TI='shared'").unwrap();
        let ti = FieldId(0);
        server
            .collection_mut()
            .add_document(Document::new().with(ti, "shared late"));
        let after = server.search_str("TI='shared'").unwrap();
        let (old, new) = (&before.docs.stores[0].chunks, &after.docs.stores[0].chunks);
        assert_eq!((old.len(), new.len()), (3, 3));
        for c in 0..2 {
            assert!(Arc::ptr_eq(&old[c], &new[c]), "chunk {c} is shared");
            assert_eq!(Arc::strong_count(&new[c]), 2, "chunk {c}: the result's and the store's");
            assert!(new[c].iter().all(|d| Arc::strong_count(&d.values) == 1));
        }
        // The tail was copied: one chunk of document handles, no string.
        assert!(!Arc::ptr_eq(&old[2], &new[2]));
        assert_eq!((old[2].len(), new[2].len()), (5, 6));
        assert!(old[2].iter().zip(new[2].iter()).all(|(a, b)| a.ptr_eq(b)));
        assert!(old[2].iter().all(|d| Arc::strong_count(&d.values) == 2));
        // The live result still reads what it found.
        assert_eq!(before.len(), 2 * CHUNK + 5);
        assert_eq!(after.len(), 2 * CHUNK + 6);
        assert_eq!(before.docs.iter().last().unwrap().id, DocId(2 * CHUNK as u32 + 4));
    }

    #[test]
    fn store_chunks_fill_in_order_and_clones_share_them() {
        let mut store = DocStore::default();
        assert_eq!((store.len(), store.get(0).is_none()), (0, true));
        let docs: Vec<Document> = (0..CHUNK + 2)
            .map(|i| Document::new().with(FieldId(0), format!("{i}")))
            .collect();
        for d in &docs {
            store.push(d.clone());
        }
        assert_eq!(store.len(), CHUNK + 2);
        assert_eq!(store.chunks.len(), 2);
        assert!((0..store.len()).all(|i| store.get(i).unwrap().ptr_eq(&docs[i])));
        assert!(store.get(CHUNK + 2).is_none());
        let replica = store.clone();
        assert!(Arc::ptr_eq(&replica.chunks, &store.chunks), "one handle copied");
        assert_eq!(format!("{replica:?}"), format!("{docs:?}"));
    }

    #[test]
    fn document_clone_shares_and_writes_copy_first() {
        let s = schema();
        let ti = s.field_by_name("title").unwrap();
        let stored = Document::new().with(ti, "A Title");
        let mut copy = stored.clone();
        assert!(copy.ptr_eq(&stored), "clone is a handle, not a copy");
        copy.push(ti, "A Subtitle");
        assert!(!copy.ptr_eq(&stored));
        assert_eq!(stored.values(ti), ["A Title"], "the original is untouched");
        assert_eq!(copy.values(ti), ["A Title", "A Subtitle"]);
        // Equality is by content: a rebuilt document equals the stored one
        // without sharing it.
        let rebuilt = Document::new().with(ti, "A Title");
        assert_eq!(rebuilt, stored);
        assert!(!rebuilt.ptr_eq(&stored));
        assert_ne!(copy, stored);
        assert_eq!(Document::default(), Document::new());
    }

    #[test]
    fn documents_cross_threads() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Document>();
        send_sync::<ShortDoc>();
        send_sync::<ShortRef<'static>>();
        send_sync::<crate::index::Collection>();
        send_sync::<crate::server::SearchResult>();
        send_sync::<crate::batch::BatchResult>();
    }

    #[test]
    fn short_form_field_past_the_mask_is_refused() {
        let mut s = TextSchema::new();
        for i in 0..64 {
            s.add_field(format!("f{i}"), format!("F{i}"), i == 63)
                .expect("within the first 64");
        }
        assert_eq!(s.add_field("late", "LT", false), Ok(FieldId(64)));
        let before = format!("{s:?}");
        let err = s.add_field("late_short", "LS", true).unwrap_err();
        assert_eq!(
            err,
            SchemaError::ShortFormFull {
                field: "late_short".into()
            }
        );
        assert!(err.to_string().contains("first 64"), "{err}");
        assert_eq!(format!("{s:?}"), before, "a refusal leaves the schema as it was");
        assert_eq!(s.len(), 65);
        assert_eq!(s.resolve("LS"), None);
        // A long-form field still fits after the refusal.
        assert_eq!(s.add_field("later", "LR", false), Ok(FieldId(65)));
    }

    #[test]
    fn empty_document() {
        let s = schema();
        let d = Document::new();
        assert_eq!(d.value_count(), 0);
        let sf = ShortDoc::new(DocId(0), d, &s);
        assert_eq!(sf.short_form_fields().count(), 0);
    }
}
