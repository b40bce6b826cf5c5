//! The paper run is checked against the committed transcript.

use rdns_benchmark::reproduce::{check_paper_output, golden};

/// The committed transcript cut just before the serve lane, as a paper run
/// without `serve` prints it.
fn committed_prefix() -> String {
    let text = golden().expect("reproduce_paper_output.txt is committed");
    let cut = text
        .find("\n================================================================\nServe path")
        .expect("the transcript ends with the serve lane");
    text[..cut].to_string()
}

#[test]
fn the_committed_transcript_passes() {
    let golden = golden().expect("transcript");
    assert_eq!(check_paper_output(&committed_prefix(), &golden), Ok(()));
}

#[test]
fn a_one_character_change_is_rejected() {
    let golden = golden().expect("transcript");
    let prefix = committed_prefix();
    // Change one digit in the middle of the transcript.
    let at = prefix[prefix.len() / 2..]
        .find(|c: char| c.is_ascii_digit())
        .map(|i| i + prefix.len() / 2)
        .expect("the transcript has digits");
    let mut changed = prefix.clone().into_bytes();
    changed[at] = if changed[at] == b'9' {
        b'8'
    } else {
        changed[at] + 1
    };
    let changed = String::from_utf8(changed).expect("still ASCII");
    let err = check_paper_output(&changed, &golden).expect_err("a changed digit must fail");
    assert!(err.contains("differs"), "{err}");
}

#[test]
fn a_truncated_or_extended_run_is_rejected() {
    let golden = golden().expect("transcript");
    let prefix = committed_prefix();
    let body = prefix.trim_end();
    let truncated = &body[..body.rfind('\n').expect("several lines")];
    assert!(check_paper_output(truncated, &golden).is_err());
    let extended = format!("{prefix}\nextra line");
    assert!(check_paper_output(&extended, &golden).is_err());
}
