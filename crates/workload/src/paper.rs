//! The paper's example queries Q1–Q5 (Sections 2–6), expressed against a
//! generated [`World`](crate::world::World).

use textjoin_core::methods::Projection;
use textjoin_core::optimizer::plan::{ForeignSpec, MultiJoinQuery, RelJoinPred, RelSpec};
use textjoin_core::query::SingleJoinQuery;
use textjoin_rel::expr::{CmpOp, Pred};

use crate::world::World;

/// Q1 (Section 2.2): senior AI students who authored reports with
/// 'belief update' in the title.
///
/// ```sql
/// select * from student, mercury
/// where student.area = 'AI' and student.year > 3
///   and 'belief update' in mercury.title
///   and student.name in mercury.author
/// ```
pub fn q1(w: &World) -> SingleJoinQuery {
    let student = w.catalog.table("student").expect("world has student");
    SingleJoinQuery {
        relation: "student".into(),
        local_pred: Pred::and(vec![
            Pred::eq(student.col("area"), "AI"),
            Pred::gt(student.col("year"), 3i64),
        ]),
        selections: vec![("belief update".into(), "title".into())],
        join: vec![("name".into(), "author".into())],
        projection: Projection::Full,
    }
}

/// Q2 (Example 3.3): docids of reports with 'text' in the title authored
/// by any of the anchor advisor's students — the query is itself a
/// semi-join.
///
/// ```sql
/// select docid from student, mercury
/// where student.advisor = '<anchor>'
///   and 'text' in mercury.title
///   and student.name in mercury.author
/// ```
pub fn q2(w: &World) -> SingleJoinQuery {
    let student = w.catalog.table("student").expect("world has student");
    SingleJoinQuery {
        relation: "student".into(),
        local_pred: Pred::eq(student.col("advisor"), w.anchor_advisor.as_str()),
        selections: vec![("text".into(), "title".into())],
        join: vec![("name".into(), "author".into())],
        projection: Projection::DocIds,
    }
}

/// Q3 (Example 3.4): NSF projects whose names appear in report titles
/// written by project members — two join predicates, the probing
/// showcase.
///
/// ```sql
/// select project.member, project.name, mercury.docid
/// from project, mercury
/// where project.sponsor = 'NSF'
///   and project.name in mercury.title
///   and project.member in mercury.author
/// ```
pub fn q3(w: &World) -> SingleJoinQuery {
    let project = w.catalog.table("project").expect("world has project");
    SingleJoinQuery {
        relation: "project".into(),
        local_pred: Pred::eq(project.col("sponsor"), "NSF"),
        selections: vec![],
        join: vec![
            ("name".into(), "title".into()),
            ("member".into(), "author".into()),
        ],
        projection: Projection::Full,
    }
}

/// Q4 (Example 3.6): distributed-systems students who co-authored reports
/// with their advisors.
///
/// ```sql
/// select * from student, mercury
/// where student.area = 'distributed systems'
///   and student.advisor in mercury.author
///   and student.name in mercury.author
/// ```
///
/// Predicate 0 is `advisor in author` (the low-distinct probe column),
/// predicate 1 is `name in author`.
pub fn q4(w: &World) -> SingleJoinQuery {
    let student = w.catalog.table("student").expect("world has student");
    SingleJoinQuery {
        relation: "student".into(),
        local_pred: Pred::eq(student.col("area"), "distributed systems"),
        selections: vec![],
        join: vec![
            ("advisor".into(), "author".into()),
            ("name".into(), "author".into()),
        ],
        projection: Projection::Full,
    }
}

/// Q5 (Example 6.1): documents from 1993 co-authored by a student and a
/// faculty member from another department — the multi-join query.
///
/// ```sql
/// select student.name, mercury.docid
/// from student, faculty, mercury
/// where student.name in mercury.author
///   and faculty.name in mercury.author
///   and faculty.dept != student.dept
///   and '1993' in mercury.year
/// ```
pub fn q5(_w: &World) -> MultiJoinQuery {
    MultiJoinQuery {
        relations: vec![
            RelSpec {
                name: "student".into(),
                local_pred: Pred::True,
            },
            RelSpec {
                name: "faculty".into(),
                local_pred: Pred::True,
            },
        ],
        rel_joins: vec![RelJoinPred {
            left_rel: 0,
            left_col: "dept".into(),
            op: CmpOp::Ne,
            right_rel: 1,
            right_col: "dept".into(),
        }],
        selections: vec![("1993".into(), "year".into())],
        foreign: vec![
            ForeignSpec {
                rel: 0,
                column: "name".into(),
                field: "author".into(),
            },
            ForeignSpec {
                rel: 1,
                column: "name".into(),
                field: "author".into(),
            },
        ],
        projection: Projection::Full,
    }
}

/// Q6 (beyond the paper): a three-way join whose plans chain *two* text
/// joins — NSF projects whose name appears in a report title, joined to
/// the member students whose names appear as authors.
///
/// ```sql
/// select * from project, student, mercury
/// where project.sponsor = 'NSF'
///   and project.member = student.name
///   and project.name in mercury.title
///   and student.name in mercury.author
/// ```
///
/// Unlike Q5 (where the single text join is the plan's first transport
/// operation), Q6's second text join dispatches after the first has
/// already spent transport time — the shape that exercises deadline
/// pressure and graceful degradation mid-plan.
pub fn q6(w: &World) -> MultiJoinQuery {
    let project = w.catalog.table("project").expect("world has project");
    MultiJoinQuery {
        relations: vec![
            RelSpec {
                name: "project".into(),
                local_pred: Pred::eq(project.col("sponsor"), "NSF"),
            },
            RelSpec {
                name: "student".into(),
                local_pred: Pred::True,
            },
        ],
        rel_joins: vec![RelJoinPred {
            left_rel: 0,
            left_col: "member".into(),
            op: CmpOp::Eq,
            right_rel: 1,
            right_col: "name".into(),
        }],
        selections: vec![],
        foreign: vec![
            ForeignSpec {
                rel: 0,
                column: "name".into(),
                field: "title".into(),
            },
            ForeignSpec {
                rel: 1,
                column: "name".into(),
                field: "author".into(),
            },
        ],
        projection: Projection::Full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldSpec};
    use textjoin_core::query::prepare;

    fn world() -> World {
        World::generate(WorldSpec {
            background_docs: 300,
            students: 80,
            projects: 20,
            ..WorldSpec::default()
        })
    }

    #[test]
    fn queries_prepare_against_world() {
        let w = world();
        let ts = w.server.collection().schema();
        for q in [q1(&w), q2(&w), q3(&w), q4(&w)] {
            let p = prepare(&q, &w.catalog, ts).expect("prepares");
            assert!(p.filtered.len() <= 80 * 3);
        }
    }

    #[test]
    fn q1_has_answers() {
        let w = world();
        let ts = w.server.collection().schema();
        let p = prepare(&q1(&w), &w.catalog, ts).unwrap();
        assert!(!p.filtered.is_empty(), "some senior AI students exist");
        let ctx = textjoin_core::methods::ExecContext::new(&w.server);
        let out = textjoin_core::methods::ts::tuple_substitution(&ctx, &p.foreign_join(), true)
            .unwrap();
        assert!(
            !out.table.is_empty(),
            "belief-update docs are authored by senior AI students"
        );
    }

    #[test]
    fn q2_is_docid_projection() {
        let w = world();
        let ts = w.server.collection().schema();
        let p = prepare(&q2(&w), &w.catalog, ts).unwrap();
        assert!(!p.filtered.is_empty(), "anchor advisor has students");
        let ctx = textjoin_core::methods::ExecContext::new(&w.server);
        let out = textjoin_core::methods::sj::semi_join(&ctx, &p.foreign_join()).unwrap();
        assert_eq!(out.table.schema().len(), 1);
    }

    #[test]
    fn q3_q4_have_two_predicates() {
        let w = world();
        assert_eq!(q3(&w).join.len(), 2);
        assert_eq!(q4(&w).join.len(), 2);
    }

    #[test]
    fn q5_planner_accepts() {
        let w = world();
        let params = textjoin_core::cost::params::CostParams::mercury(w.server.doc_count() as f64);
        let (planned, outcome) = textjoin_core::exec::plan_and_execute(
            &q5(&w),
            &w.catalog,
            &w.server,
            params,
            textjoin_core::optimizer::multi::ExecutionSpace::Prl,
        )
        .unwrap();
        assert!(planned.plan.is_valid_prl());
        assert!(outcome.total_cost > 0.0);
    }

    #[test]
    fn q2_local_selection_is_selective() {
        let w = world();
        let ts = w.server.collection().schema();
        let n = prepare(&q2(&w), &w.catalog, ts)
            .expect("prepares")
            .filtered
            .len();
        assert!(n > 0 && n < 80);
    }
}
