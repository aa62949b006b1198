//! The wire contract of the compile op, pinned from outside: both
//! request framings byte for byte as the parent commit wrote them, and
//! the one classifier every reader of a reply's `status` goes through.

use polyject_serve::protocol::{
    batch_done_response, batch_item_response, error_response, ok_with, overloaded_response,
    retryable_error_response, Framing, MAX_FRAME,
};
use polyject_serve::{read_frame, write_frame, BatchItem, Json, Request, Verdict};

/// Both compile frames exactly as the wire carried them before the two
/// ops became one `Request` variant.
const COMPILE_FRAME: &str =
    r#"{"op":"compile","src":"kernel k\n","config":"infl","req":"0007.1.a"}"#;
const BATCH_FRAME: &str = concat!(
    r#"{"op":"compile_batch","items":[{"src":"kernel a\n","config":"isl"},"#,
    r#"{"src":"kernel b\n","config":"infl"}],"req":"0007.b"}"#
);

#[test]
fn recorded_compile_frames_survive_a_roundtrip_byte_for_byte() {
    for (frame, framing, count) in [
        (COMPILE_FRAME, Framing::Bare, 1),
        (BATCH_FRAME, Framing::Envelope, 2),
    ] {
        let parsed = Request::from_json(&Json::parse(frame).unwrap()).unwrap();
        assert_eq!(parsed.to_json().render(), frame);
        let Request::Compile {
            items,
            req,
            framing: arrived_in,
        } = parsed
        else {
            panic!("{frame} is a compile request");
        };
        assert_eq!((arrived_in, items.len()), (framing, count));
        assert!(req.is_some_and(|id| id.starts_with("0007.")));
    }
}

#[test]
fn a_batch_of_one_keeps_its_envelope() {
    let one = Request::compile_batch(vec![BatchItem::new("kernel a\n", "isl")], None);
    let frame = one.to_json().render();
    assert_eq!(
        frame,
        r#"{"op":"compile_batch","items":[{"src":"kernel a\n","config":"isl"}]}"#
    );
    assert_eq!(Request::from_json(&one.to_json()).unwrap(), one);
    // And the same item sent bare is the legacy frame, not a batch.
    let bare = Request::compile("kernel a\n", "isl", None);
    assert_eq!(
        bare.to_json().render(),
        r#"{"op":"compile","src":"kernel a\n","config":"isl"}"#
    );
    assert_ne!(bare, one);
}

#[test]
fn verdict_reads_status_and_retryable() {
    assert_eq!(Verdict::of(&ok_with(vec![])), Verdict::Ok);
    assert_eq!(Verdict::of(&overloaded_response(3)), Verdict::Overloaded);
    assert_eq!(Verdict::of(&error_response("no")), Verdict::Final);
    assert_eq!(
        Verdict::of(&retryable_error_response("later")),
        Verdict::Retryable
    );
    // `retryable` qualifies an error only; it cannot un-ok an ok.
    let odd = ok_with(vec![("retryable", Json::Bool(true))]);
    assert_eq!(Verdict::of(&odd), Verdict::Ok);
    // No status at all, or one nobody knows: nothing definitive was
    // said, so it is not final.
    assert_eq!(Verdict::of(&Json::obj(vec![])), Verdict::Retryable);
    let unknown = Json::obj(vec![("status", Json::Str("busy".into()))]);
    assert_eq!(Verdict::of(&unknown), Verdict::Retryable);
    let transient = [Verdict::Overloaded, Verdict::Retryable];
    assert!(transient.iter().all(|v| v.transient()));
    assert!(!Verdict::Ok.transient() && !Verdict::Final.transient());
}

#[test]
fn frames_roundtrip() {
    let msg = Request::compile("kernel k\n", "infl", None).to_json();
    let mut buf = Vec::new();
    write_frame(&mut buf, &msg).unwrap();
    let back = read_frame(&mut buf.as_slice()).unwrap();
    assert_eq!(back, msg);
    assert_eq!(Request::from_json(&back).unwrap().to_json(), msg);
}

#[test]
fn oversized_frame_rejected() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
    assert!(read_frame(&mut buf.as_slice()).is_err());
}

#[test]
fn response_builders() {
    assert!(error_response("boom").render().contains("\"error\""));
    assert!(overloaded_response(9).render().contains("\"queue_len\":9"));
    let retry = retryable_error_response("slow down");
    assert_eq!(retry.get("retryable").and_then(Json::as_bool), Some(true));
    assert!(error_response("boom").get("retryable").is_none());
}

#[test]
fn batch_reply_frames() {
    let item = batch_item_response(3, 7, error_response("nope"));
    assert_eq!(item.str_field("status").unwrap(), "item");
    assert_eq!(item.get("index").and_then(Json::as_u64), Some(3));
    assert_eq!(item.get("of").and_then(Json::as_u64), Some(7));
    assert_eq!(
        item.get("reply").unwrap().str_field("status").unwrap(),
        "error"
    );
    let done = batch_done_response(7, 5, 1, 1);
    assert_eq!(done.str_field("status").unwrap(), "batch_done");
    assert_eq!(done.get("items").and_then(Json::as_u64), Some(7));
    assert_eq!(done.get("ok").and_then(Json::as_u64), Some(5));
    assert_eq!(done.get("errors").and_then(Json::as_u64), Some(1));
    assert_eq!(done.get("overloaded").and_then(Json::as_u64), Some(1));
}

#[test]
fn request_parse_errors() {
    assert!(Request::from_json(&Json::parse("{\"op\":\"nope\"}").unwrap()).is_err());
    assert!(Request::from_json(&Json::parse("{}").unwrap()).is_err());
    assert_eq!(
        Request::from_json(&Json::parse("{\"op\":\"ping\"}").unwrap()).unwrap(),
        Request::Ping
    );
}
