//! The generated experimental world: a university database (student,
//! faculty, project) plus a CSTR-like document collection, with knobs that
//! pin the statistics the paper's experiments sweep — relation size `N`,
//! distinct counts `N_i`, predicate selectivities `s_i`, and fanouts `f_i`.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use textjoin_rel::catalog::Catalog;
use textjoin_rel::schema::RelSchema;
use textjoin_rel::table::Table;
use textjoin_rel::tuple::Tuple;
use textjoin_rel::value::{Value, ValueType};
use textjoin_text::doc::Document;
use textjoin_text::index::Collection;
use textjoin_text::server::TextServer;

use crate::corpus::{cstr_schema, INSTITUTIONS};
use crate::names::{abstract_text, title, unique_names, TOPICS};

/// Research areas used for `student.area`.
pub const AREAS: &[&str] = &["AI", "db", "distributed systems", "theory"];

/// Departments used for `dept` columns.
pub const DEPTS: &[&str] = &["CS", "EE", "Math", "Stats"];

/// Generation knobs. Defaults give a laptop-fast world (a few thousand
/// documents) whose statistics echo the paper's setting.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// RNG seed — every run with the same spec is identical.
    pub seed: u64,
    /// Background documents (the corpus also gains the documents generated
    /// for publishing students and projects).
    pub background_docs: usize,
    /// Students (`N` for Q1/Q2/Q4-style queries before local selections).
    pub students: usize,
    /// Distinct advisors (`N_1` for Q4's probe column).
    pub advisors: usize,
    /// Fraction of students who author documents (drives `s` of
    /// `student.name in author`).
    pub student_publish_frac: f64,
    /// Documents authored per publishing student (drives `f`).
    pub docs_per_student_author: usize,
    /// Probability a publishing student's document is co-authored with
    /// their advisor (gives Q4 its answers).
    pub coauthor_with_advisor_frac: f64,
    /// Number of projects (distinct project names — `N_1` for Q3).
    pub projects: usize,
    /// Members (rows) per project; `N = projects × members_per_project`
    /// for Q3.
    pub members_per_project: usize,
    /// Fraction of project names that occur in some document title —
    /// exactly `s_1` of Q3's probe column.
    pub project_title_hit_frac: f64,
    /// Documents titled with each hit project name (drives Q3's `f_1`).
    pub docs_per_hit_project: usize,
    /// Probability a hit project's document is authored by a project
    /// member (the predicate correlation of Q3: 1.0 = fully correlated,
    /// matching the paper's fully-correlated cost model).
    pub project_doc_by_member_frac: f64,
    /// Fraction of projects sponsored by NSF (Q3's local selection).
    pub nsf_frac: f64,
    /// Probability a background document is co-authored by a faculty
    /// member (keeps advisors from being too prolific — the paper's Q4
    /// discussion assumes advisors are "not very prolific").
    pub background_faculty_coauthor_frac: f64,
    /// Fraction of documents dated "May 1993" (Q5's selection).
    pub year_1993_frac: f64,
    /// Documents with the phrase "belief update" in the title (Q1's
    /// selection), authored by senior AI students where possible.
    pub belief_update_docs: usize,
}

impl Default for WorldSpec {
    fn default() -> Self {
        Self {
            seed: 42,
            background_docs: 2_000,
            students: 200,
            advisors: 12,
            student_publish_frac: 0.3,
            docs_per_student_author: 2,
            coauthor_with_advisor_frac: 0.5,
            projects: 40,
            members_per_project: 3,
            project_title_hit_frac: 0.16, // the paper's Q3 value of s_1
            docs_per_hit_project: 2,
            project_doc_by_member_frac: 0.9,
            nsf_frac: 0.5,
            background_faculty_coauthor_frac: 0.04,
            year_1993_frac: 0.3,
            belief_update_docs: 3,
        }
    }
}

/// The generated world.
pub struct World {
    /// The relational database: `student`, `faculty`, `project`.
    pub catalog: Catalog,
    /// The text server over the generated collection.
    pub server: TextServer,
    /// The advisor name playing the paper's 'Garcia' (used by Q2/Q4).
    pub anchor_advisor: String,
    /// The spec the world was generated from.
    pub spec: WorldSpec,
}

impl World {
    /// Generates a world from `spec`.
    pub fn generate(spec: WorldSpec) -> World {
        let mut rng = StdRng::seed_from_u64(spec.seed);

        // --- People -----------------------------------------------------
        let student_names = unique_names(&mut rng, spec.students);
        let faculty_names = unique_names(&mut rng, spec.advisors);

        #[derive(Clone)]
        struct Student {
            name: String,
            advisor: String,
            area: &'static str,
            year: i64,
            dept: &'static str,
        }
        let students: Vec<Student> = student_names
            .iter()
            .map(|name| Student {
                name: name.clone(),
                advisor: faculty_names[rng.gen_range(0..faculty_names.len())].clone(),
                area: AREAS[rng.gen_range(0..AREAS.len())],
                year: rng.gen_range(1..=6),
                dept: DEPTS[rng.gen_range(0..DEPTS.len())],
            })
            .collect();

        // --- Projects ---------------------------------------------------
        // Project names are fresh single tokens; the first
        // `hit_frac × projects` of them will be injected into doc titles.
        let project_names: Vec<String> = unique_names(&mut rng, spec.projects)
            .into_iter()
            .map(|n| format!("{n}proj").to_lowercase())
            .collect();
        let hit_projects = ((spec.projects as f64) * spec.project_title_hit_frac).round() as usize;

        // Assign members.
        let mut project_rows: Vec<(String, String, String)> = Vec::new(); // (name, sponsor, member)
        for (pi, pname) in project_names.iter().enumerate() {
            let sponsor = if (pi as f64) < spec.nsf_frac * spec.projects as f64 {
                "NSF"
            } else {
                "DARPA"
            };
            for _ in 0..spec.members_per_project {
                let member = &students[rng.gen_range(0..students.len())].name;
                project_rows.push((pname.clone(), sponsor.to_owned(), member.clone()));
            }
        }
        // Shuffle so sponsors/hits are not clustered.
        project_rows.shuffle(&mut rng);

        // --- Corpus -----------------------------------------------------
        let schema = cstr_schema();
        let ti = schema.field_by_name("title").expect("schema has title");
        let au = schema.field_by_name("author").expect("schema has author");
        let ab = schema
            .field_by_name("abstract")
            .expect("schema has abstract");
        let yr = schema.field_by_name("year").expect("schema has year");
        let inst = schema
            .field_by_name("institution")
            .expect("schema has institution");
        let year_of = |rng: &mut StdRng| {
            if rng.gen_bool(spec.year_1993_frac) {
                "May 1993"
            } else {
                "May 1990"
            }
        };
        // Each document is drawn when the bulk build reaches it, so none
        // waits unindexed; the four groups below share the generator in turn.
        let outside_authors = &unique_names(&mut rng, 300);
        let rng = RefCell::new(rng);
        let doc = |draw: &dyn Fn(&mut StdRng) -> (String, Vec<String>)| {
            let rng = &mut *rng.borrow_mut();
            let (doc_title, authors) = draw(rng);
            let mut d = Document::new()
                .with(ti, doc_title)
                .with(ab, abstract_text(rng, 12))
                .with(yr, year_of(rng))
                .with(inst, INSTITUTIONS[rng.gen_range(0..INSTITUTIONS.len())]);
            for a in authors {
                d.push(au, a);
            }
            d
        };
        let doc = &doc;

        // Background documents by faculty and outside authors.
        let background = (0..spec.background_docs).map(|_| {
            doc(&|rng| {
                let mut authors =
                    vec![outside_authors[rng.gen_range(0..outside_authors.len())].clone()];
                if rng.gen_bool(spec.background_faculty_coauthor_frac) {
                    authors.push(faculty_names[rng.gen_range(0..faculty_names.len())].clone());
                }
                (title(rng, 5), authors)
            })
        });

        // Publishing students.
        let publishing = ((spec.students as f64) * spec.student_publish_frac).round() as usize;
        let by_students = students.iter().take(publishing).flat_map(|s| {
            (0..spec.docs_per_student_author).map(move |_| {
                doc(&|rng| {
                    let mut authors = vec![s.name.clone()];
                    if rng.gen_bool(spec.coauthor_with_advisor_frac) {
                        authors.push(s.advisor.clone());
                    }
                    (title(rng, 5), authors)
                })
            })
        });

        // 'belief update' documents for Q1, authored by senior AI students
        // when available (so Q1 has answers), else by outsiders.
        let senior_ai: Vec<&Student> = students
            .iter()
            .take(publishing)
            .filter(|s| s.area == "AI" && s.year > 3)
            .collect();
        let belief = (0..spec.belief_update_docs).map(|i| {
            let author = if !senior_ai.is_empty() {
                senior_ai[i % senior_ai.len()].name.clone()
            } else {
                outside_authors[i % outside_authors.len()].clone()
            };
            doc(&|rng| {
                let filler = TOPICS[rng.gen_range(0..TOPICS.len())];
                (format!("belief update {filler}"), vec![author.clone()])
            })
        });

        // Documents titled with hit project names; authored by a project
        // member half the time (so Q3 has both full matches and
        // probe-passes-query-fails cases).
        let by_projects = project_names.iter().take(hit_projects).flat_map(|pname| {
            let member_rows: Vec<&(String, String, String)> =
                project_rows.iter().filter(|(n, _, _)| n == pname).collect();
            (0..spec.docs_per_hit_project).map(move |_| {
                doc(&|rng| {
                    let author = if rng.gen_bool(spec.project_doc_by_member_frac)
                        && !member_rows.is_empty()
                    {
                        member_rows[rng.gen_range(0..member_rows.len())].2.clone()
                    } else {
                        outside_authors[rng.gen_range(0..outside_authors.len())].clone()
                    };
                    (format!("{pname} {}", title(rng, 3)), vec![author])
                })
            })
        });

        let mut coll = Collection::new(schema);
        coll.extend(
            background
                .chain(by_students)
                .chain(belief)
                .chain(by_projects),
        );
        let mut rng = rng.into_inner();

        // --- Relational tables -------------------------------------------
        let mut catalog = Catalog::new();

        let sschema = RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("advisor", ValueType::Str),
            ("area", ValueType::Str),
            ("year", ValueType::Int),
            ("dept", ValueType::Str),
        ]);
        let mut student = Table::new("student", sschema);
        for s in &students {
            student.push(Tuple::new(vec![
                Value::str(&*s.name),
                Value::str(&*s.advisor),
                Value::str(s.area),
                Value::int(s.year),
                Value::str(s.dept),
            ]));
        }
        catalog.register(student);

        let fschema =
            RelSchema::from_columns(vec![("name", ValueType::Str), ("dept", ValueType::Str)]);
        let mut faculty = Table::new("faculty", fschema);
        for f in &faculty_names {
            faculty.push(Tuple::new(vec![
                Value::str(&**f),
                Value::str(DEPTS[rng.gen_range(0..DEPTS.len())]),
            ]));
        }
        catalog.register(faculty);

        let pschema = RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("sponsor", ValueType::Str),
            ("member", ValueType::Str),
        ]);
        let mut project = Table::new("project", pschema);
        for (name, sponsor, member) in &project_rows {
            project.push(Tuple::new(vec![
                Value::str(&**name),
                Value::str(&**sponsor),
                Value::str(&**member),
            ]));
        }
        catalog.register(project);

        // The anchor advisor: the one advising the most publishing students
        // (the paper's 'Garcia', who has several students for Q2's IN list).
        // The anchor plays Q2's 'Garcia': prefer the advisor whose students
        // give Q2 a non-empty answer (a student-authored document with
        // 'text' in the title), breaking ties by publishing-student count
        // and then name — all deterministic (BTreeMap order).
        let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        let mut has_q2_answer: std::collections::BTreeMap<&str, bool> =
            std::collections::BTreeMap::new();
        for st in students.iter().take(publishing) {
            *counts.entry(st.advisor.as_str()).or_default() += 1;
            let expr = textjoin_text::expr::SearchExpr::and(vec![
                textjoin_text::expr::SearchExpr::term_in("text", ti),
                textjoin_text::expr::SearchExpr::term_in(&st.name, au),
            ]);
            if !textjoin_text::eval::evaluate(&coll, &expr).docs.is_empty() {
                has_q2_answer.insert(st.advisor.as_str(), true);
            }
        }
        let anchor_advisor = counts
            .iter()
            .max_by_key(|&(a, c)| {
                (
                    has_q2_answer.get(a).copied().unwrap_or(false),
                    *c,
                    std::cmp::Reverse(*a),
                )
            })
            .map(|(a, _)| (*a).to_owned())
            .unwrap_or_else(|| faculty_names[0].clone());

        World {
            catalog,
            server: TextServer::new(coll),
            anchor_advisor,
            spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_rel::ops::distinct_count;

    fn world() -> World {
        World::generate(WorldSpec {
            background_docs: 300,
            students: 80,
            projects: 20,
            ..WorldSpec::default()
        })
    }

    #[test]
    fn deterministic_generation() {
        let a = world();
        let b = world();
        assert_eq!(a.server.doc_count(), b.server.doc_count());
        assert_eq!(
            a.catalog.table("student").unwrap().rows(),
            b.catalog.table("student").unwrap().rows()
        );
        assert_eq!(a.anchor_advisor, b.anchor_advisor);
    }

    #[test]
    fn tables_have_expected_shape() {
        let w = world();
        let student = w.catalog.table("student").unwrap();
        assert_eq!(student.len(), 80);
        assert_eq!(distinct_count(student, student.col("name")), 80);
        assert!(distinct_count(student, student.col("advisor")) <= 12);
        let project = w.catalog.table("project").unwrap();
        assert_eq!(project.len(), 20 * 3);
        assert_eq!(distinct_count(project, project.col("name")), 20);
    }

    #[test]
    fn project_hit_fraction_controls_s1() {
        let w = world();
        let export = w.server.export_stats();
        let ti = w
            .server
            .collection()
            .schema()
            .field_by_name("title")
            .unwrap();
        let project = w.catalog.table("project").unwrap();
        let stats =
            textjoin_core::stats::export_predicate(&export, project, project.col("name"), ti);
        // Spec: 16% of 20 projects ≈ 3 hit names.
        assert!(
            (stats.selectivity - 0.15).abs() < 0.06,
            "measured s_1 = {}",
            stats.selectivity
        );
    }

    #[test]
    fn student_publish_fraction_controls_selectivity() {
        let w = world();
        let export = w.server.export_stats();
        let au = w
            .server
            .collection()
            .schema()
            .field_by_name("author")
            .unwrap();
        let student = w.catalog.table("student").unwrap();
        let stats =
            textjoin_core::stats::export_predicate(&export, student, student.col("name"), au);
        // Publishing students plus project members who authored hit-project
        // docs; the knob dominates but does not pin it exactly.
        assert!(
            stats.selectivity > 0.25 && stats.selectivity < 0.5,
            "measured s = {}",
            stats.selectivity
        );
        // Publishing students author ~2 docs each.
        assert!(
            stats.fanout > 0.3 && stats.fanout < 1.5,
            "f = {}",
            stats.fanout
        );
    }

    #[test]
    fn belief_update_docs_exist_with_senior_ai_authors() {
        let w = world();
        let hits = w.server.search_str("TI='belief update'").unwrap();
        // At least the injected documents; random topic titles can add more.
        assert!(hits.len() >= w.spec.belief_update_docs);
    }

    #[test]
    fn anchor_advisor_has_publishing_students() {
        let w = world();
        let student = w.catalog.table("student").unwrap();
        let advised: Vec<&str> = student
            .iter()
            .filter(|r| r.get(student.col("advisor")).as_str() == Some(&w.anchor_advisor))
            .map(|r| {
                r.get(student.col("name"))
                    .as_str()
                    .expect("names are strings")
            })
            .collect();
        assert!(!advised.is_empty());
    }

    #[test]
    fn corpus_size_accounts_for_all_sources() {
        let w = world();
        let d = w.server.doc_count();
        // background + publishing-student docs + belief docs + project docs
        assert!(d >= 300 + w.spec.belief_update_docs);
        assert!(d < 1000);
    }
}
