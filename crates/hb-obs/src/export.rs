//! Renderers that turn recorded data into interchange formats.
//!
//! The Prometheus and JSON renderers for metrics live on
//! [`crate::Registry`]; this module holds the chrome://tracing trace
//! renderer.

use crate::ring::Event;
use hb_intern::json_escape;

/// Renders events as a chrome://tracing-compatible JSON document
/// (`{"traceEvents":[..]}`, the JSON Object Format). Load the output in
/// `chrome://tracing` or <https://ui.perfetto.dev> to see the timeline.
///
/// Events with a nonzero duration become complete (`"ph":"X"`) slices
/// whose start is backdated by the duration; instantaneous events become
/// thread-scoped instants (`"ph":"i"`). Timestamps are microseconds, as
/// the format requires. `name_of` supplies the display name, typically
/// `kind.name() + the method's Class#method form`.
pub fn chrome_trace(events: &[Event], name_of: impl Fn(&Event) -> String) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = json_escape(&name_of(ev));
        let cat = ev.kind.name();
        if ev.dur_ns > 0 {
            let ts = ev.t_ns.saturating_sub(ev.dur_ns) as f64 / 1000.0;
            let dur = ev.dur_ns as f64 / 1000.0;
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":1}}"
            ));
        } else {
            let ts = ev.t_ns as f64 / 1000.0;
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":{ts:.3},\"s\":\"t\",\"pid\":1,\"tid\":1}}"
            ));
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{EventKind, EventRing};
    use hb_intern::MethodKey;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn trace_round_trips_as_json() {
        let r = EventRing::new(16);
        let key = MethodKey::instance("Talk", "speaker\"s");
        r.record(EventKind::CacheHit, key);
        r.record_span(EventKind::CheckPass, key, 5_000);
        let doc = chrome_trace(&r.snapshot(), |e| format!("{}:{}", e.kind.name(), e.key));
        crate::json::validate_json(&doc).unwrap();
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"dur\":5.000"));
        assert!(doc.contains("speaker\\\"s"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let doc = chrome_trace(&[], |_| String::new());
        crate::json::validate_json(&doc).unwrap();
        assert_eq!(doc, "{\"traceEvents\":[]}");
    }
}
