//! The `.trace.json` artifact: both writers and the reader of one
//! target's scenario journals.
//!
//! A document is `{"target", "scenarios": [{"name", "dropped",
//! "events": [...]}]}` with every event flattened to `{t, pid, machine,
//! kind, <payload fields>}` ([`TraceEvent::kind`] + [`TraceEvent::fields`]).
//! [`trace_doc_string`] streams it straight into a `String`;
//! [`trace_json`] builds the same document as a [`Json`] tree (a test
//! pins the two byte-identical); [`parse_trace`] reads it back through
//! [`TraceEvent::from_fields`].

use std::borrow::Cow;

use hawkeye_metrics::json::{escape_into, num_into, Json, Parser};
use hawkeye_metrics::Cycles;

use crate::{Journal, TraceEvent, TraceRecord};

/// Serializes the `.trace.json` document for one target straight into a
/// `String` — byte-for-byte what [`trace_json`] + [`Json::write_into`]
/// produce, without materializing a [`Json`] tree first. Journals run to
/// millions of events; the intermediate tree costs ~10 heap allocations
/// per event (a `Vec` of pairs plus owned key strings), which dominates
/// the artifact dump on fault-heavy targets.
pub fn trace_doc_string(target: &str, journals: &[(String, Journal)]) -> String {
    // ~95 bytes/event across the suite's journals; oversizing slightly
    // avoids a late doubling of a hundred-megabyte buffer.
    let events: usize = journals.iter().map(|(_, j)| j.records.len()).sum();
    let mut out = String::with_capacity(128 * events + 1024);
    out.push_str("{\"target\":");
    escape_into(target, &mut out);
    out.push_str(",\"scenarios\":[");
    for (i, (name, journal)) in journals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        escape_into(name, &mut out);
        out.push_str(",\"dropped\":");
        num_into(journal.dropped as f64, &mut out);
        out.push_str(",\"events\":[");
        for (j, r) in journal.records.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"t\":");
            num_into(r.at.get() as f64, &mut out);
            out.push_str(",\"pid\":");
            num_into(r.pid as f64, &mut out);
            out.push_str(",\"machine\":");
            num_into(r.machine as f64, &mut out);
            out.push_str(",\"kind\":");
            escape_into(r.event.kind(), &mut out);
            for (k, v) in r.event.fields() {
                out.push(',');
                escape_into(k, &mut out);
                out.push(':');
                num_into(v as f64, &mut out);
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// The `.trace.json` document for one target as a [`Json`] tree: every
/// scenario's journal in submission order.
pub fn trace_json(target: &str, journals: &[(String, Journal)]) -> Json {
    let scenarios = journals
        .iter()
        .map(|(name, journal)| {
            let events = journal
                .records
                .iter()
                .map(|r| {
                    let mut fields = vec![
                        ("t", Json::int(r.at.get())),
                        ("pid", Json::int(r.pid as u64)),
                        ("machine", Json::int(r.machine as u64)),
                        ("kind", Json::str(r.event.kind())),
                    ];
                    for (k, v) in r.event.fields() {
                        fields.push((k, Json::int(v)));
                    }
                    Json::obj(fields)
                })
                .collect();
            Json::obj(vec![
                ("name", Json::str(name.clone())),
                ("dropped", Json::int(journal.dropped)),
                ("events", Json::Arr(events)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("target", Json::str(target)),
        ("scenarios", Json::Arr(scenarios)),
    ])
}

/// One parsed `.trace.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDoc {
    /// The bench target the document came from.
    pub target: String,
    /// Scenario journals in submission order.
    pub scenarios: Vec<ScenarioTrace>,
}

/// One scenario's journal.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTrace {
    /// Scenario name.
    pub name: String,
    /// Records the bounded ring overwrote before the journal was drained.
    pub dropped: u64,
    /// Records in emission order.
    pub records: Vec<TraceRecord>,
}

/// Parses a `.trace.json` document back into typed records. Unknown
/// event kinds and malformed payloads are errors — the journal format
/// and [`TraceEvent::from_fields`] evolve together, so a mismatch means
/// reader and writer are out of sync.
///
/// The document is streamed: journals hold millions of event objects and
/// loading them through a generic JSON tree costs ~10 heap allocations
/// per event, which dominates report-pipeline load time on fault-heavy
/// targets. Keys stay borrowed from the input; only the typed
/// [`TraceRecord`]s are allocated. Key order and unknown keys are
/// tolerated.
pub fn parse_trace(text: &str) -> Result<TraceDoc, String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let mut target: Option<String> = None;
    let mut scenarios: Vec<ScenarioTrace> = Vec::new();
    let mut saw_scenarios = false;
    p.walk_obj(|p, key| match key.as_ref() {
        "target" => {
            target = Some(p.string_ref()?.into_owned());
            Ok(())
        }
        "scenarios" => {
            saw_scenarios = true;
            p.walk_arr(|p| {
                let i = scenarios.len();
                let s = parse_scenario(p, i)?;
                scenarios.push(s);
                Ok(())
            })
        }
        _ => p.skip_value(),
    })?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing data after document"));
    }
    let target = target.ok_or("missing \"target\"")?;
    if !saw_scenarios {
        return Err("missing \"scenarios\"".to_string());
    }
    Ok(TraceDoc { target, scenarios })
}

fn parse_scenario<'a>(p: &mut Parser<'a>, index: usize) -> Result<ScenarioTrace, String> {
    let mut name: Option<String> = None;
    let mut dropped: Option<u64> = None;
    let mut records: Vec<TraceRecord> = Vec::new();
    let mut saw_events = false;
    // Scratch for one event's payload fields, reused across the journal.
    let mut fields: Vec<(Cow<'a, str>, u64)> = Vec::new();
    p.walk_obj(|p, key| match key.as_ref() {
        "name" => {
            name = Some(p.string_ref()?.into_owned());
            Ok(())
        }
        "dropped" => {
            dropped = Some(p.u64_number("dropped")?);
            Ok(())
        }
        "events" => {
            saw_events = true;
            p.walk_arr(|p| {
                let j = records.len();
                let label = || match &name {
                    Some(n) => format!("scenario {n}, event {j}"),
                    None => format!("scenario {index}, event {j}"),
                };
                let r = parse_record(p, &mut fields).map_err(|m| format!("{}: {m}", label()))?;
                records.push(r);
                Ok(())
            })
        }
        _ => p.skip_value(),
    })?;
    let name = name.ok_or_else(|| format!("scenario {index}: missing \"name\""))?;
    let dropped = dropped.ok_or_else(|| format!("scenario {name}: missing \"dropped\""))?;
    if !saw_events {
        return Err(format!("scenario {name}: missing \"events\""));
    }
    Ok(ScenarioTrace {
        name,
        dropped,
        records,
    })
}

fn parse_record<'a>(
    p: &mut Parser<'a>,
    fields: &mut Vec<(Cow<'a, str>, u64)>,
) -> Result<TraceRecord, String> {
    fields.clear();
    let (mut t, mut pid, mut machine) = (None, None, None);
    let mut kind: Option<Cow<'a, str>> = None;
    if p.peek() != Some(b'{') {
        // Consume the value so the error is about shape, not grammar.
        p.skip_value()?;
        return Err("event is not an object".to_string());
    }
    p.walk_obj(|p, key| {
        match key.as_ref() {
            "t" => t = Some(p.u64_number("t")?),
            "pid" => pid = Some(p.u64_number("pid")?),
            "machine" => machine = Some(p.u64_number("machine")?),
            "kind" => kind = Some(p.string_ref()?),
            _ => {
                let v = p.u64_number(&key)?;
                fields.push((key, v));
            }
        }
        Ok(())
    })?;
    let kind = kind.ok_or("missing \"kind\"")?;
    let event = TraceEvent::from_fields(&kind, fields)
        .ok_or_else(|| format!("unknown or incomplete event kind \"{kind}\""))?;
    Ok(TraceRecord {
        at: Cycles::new(t.ok_or("missing \"t\"")?),
        pid: pid.ok_or("missing \"pid\"")? as u32,
        machine: machine.ok_or("missing \"machine\"")? as u32,
        event,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_trace_doc_matches_tree_serialization_and_parses_back() {
        // One record per event kind, plus name characters that need
        // escaping — the streaming writer must reproduce the tree
        // serialization byte for byte, and the reader must invert both.
        let largest = TraceEvent::Fault { vpn: (1 << 53) - 1, huge: false, cow: true, cycles: 0 };
        let records = crate::tests::every_variant()
            .into_iter()
            .chain([largest])
            .enumerate()
            .map(|(i, event)| TraceRecord {
                at: Cycles::new(i as u64 * 1_000_000_007),
                pid: i as u32,
                machine: (i % 2) as u32,
                event,
            })
            .collect();
        let journals = vec![
            ("quoted \"name\"\n".to_string(), Journal { records, dropped: 3 }),
            ("empty".to_string(), Journal { records: Vec::new(), dropped: 0 }),
        ];
        let streamed = trace_doc_string("demo \\target", &journals);
        assert_eq!(streamed, trace_json("demo \\target", &journals).to_string());
        let doc = parse_trace(&streamed).expect("writer output parses");
        assert_eq!(doc.target, "demo \\target");
        assert_eq!(doc.scenarios.len(), journals.len());
        for (s, (name, journal)) in doc.scenarios.iter().zip(&journals) {
            assert_eq!(&s.name, name);
            assert_eq!(s.dropped, journal.dropped);
            assert_eq!(s.records, journal.records);
        }
    }

    #[test]
    fn parse_trace_tolerates_layout_and_rejects_unknown_kinds() {
        let text = r#"{"target":"demo","scenarios":[{"name":"a","dropped":0,"events":[
            {"t":5,"pid":1,"machine":0,"kind":"fault","vpn":7,"huge":1,"cow":0,"cycles":6095},
            {"kind":"oom","t":9,"pid":0,"machine":0}
        ]}]}"#;
        let d = parse_trace(text).expect("parse");
        assert_eq!(d.scenarios[0].records.len(), 2);
        assert_eq!(d.scenarios[0].records[1].event, TraceEvent::Oom);
        let err = parse_trace(&text.replace("\"oom\"", "\"mystery\"")).expect_err("must reject");
        assert!(err.contains("mystery"), "{err}");
    }
}
