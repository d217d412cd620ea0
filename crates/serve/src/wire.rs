//! Line-delimited JSON framing with hard size caps.
//!
//! One frame is one `\n`-terminated UTF-8 line holding one JSON object.
//! The reader enforces [`MAX_FRAME_BYTES`]: an oversized line is *drained*
//! (consumed up to its newline without buffering it) and reported as a
//! structured [`Error::Protocol`], so a hostile or buggy peer can neither
//! exhaust memory nor desynchronize the stream — the connection stays
//! usable for the next frame.  Partial lines at EOF and invalid UTF-8 are
//! protocol errors too, never panics.

use revterm::api::json::{parse_json, Json};
use revterm::api::ProveResponse;
use revterm::Error;
use std::io::{BufRead, Write};

/// Maximum frame length in bytes (4 MiB — far above any real benchmark
/// program, far below anything that could hurt the daemon).
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Reads one frame.
///
/// Returns `Ok(None)` on clean end-of-stream (EOF before any byte of a new
/// frame).
///
/// # Errors
///
/// * [`Error::Protocol`] for an oversized frame (drained, stream still
///   synchronized) or a frame cut off by EOF;
/// * [`Error::Io`] if the underlying read fails.
pub fn read_frame<R: BufRead>(reader: &mut R) -> Result<Option<String>, Error> {
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = reader.fill_buf().map_err(Error::from)?;
        if chunk.is_empty() {
            // EOF.
            return match (oversized, line.is_empty()) {
                (true, _) => Err(oversize_error()),
                (false, true) => Ok(None),
                (false, false) => {
                    Err(Error::Protocol("connection closed mid-frame (missing newline)".into()))
                }
            };
        }
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(nl) => (nl + 1, true),
            None => (chunk.len(), false),
        };
        if !oversized {
            line.extend_from_slice(&chunk[..take]);
        }
        reader.consume(take);
        if line.len() > MAX_FRAME_BYTES {
            // Stop buffering but keep draining until the newline so the
            // *next* frame still parses.
            oversized = true;
            line.clear();
        }
        if done {
            if oversized {
                return Err(oversize_error());
            }
            if line.last() == Some(&b'\n') {
                line.pop();
            }
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            let text = String::from_utf8(line)
                .map_err(|_| Error::Protocol("frame is not valid utf-8".into()))?;
            return Ok(Some(text));
        }
    }
}

fn oversize_error() -> Error {
    Error::Protocol(format!("frame exceeds {MAX_FRAME_BYTES} bytes"))
}

/// Writes one JSON value as a frame (single line + `\n`, flushed).
///
/// # Errors
///
/// [`Error::Io`] if the write or flush fails.
pub fn write_frame<W: Write>(writer: &mut W, value: &Json) -> Result<(), Error> {
    let mut text = value.to_string();
    text.push('\n');
    writer.write_all(text.as_bytes()).map_err(Error::from)?;
    writer.flush().map_err(Error::from)
}

/// Reads and decodes one response frame (client side).
///
/// # Errors
///
/// [`Error::Protocol`] on EOF (a response was expected), otherwise as
/// [`read_frame`] / [`ProveResponse::from_json`].
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<ProveResponse, Error> {
    match read_frame(reader)? {
        None => Err(Error::Protocol("server closed the connection before responding".into())),
        Some(line) => ProveResponse::from_json(&parse_json(&line)?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm::api::ProveRequest;
    use std::io::BufReader;

    fn frames(input: &[u8]) -> Vec<Result<Option<String>, Error>> {
        let mut reader = BufReader::new(input);
        let mut out = Vec::new();
        loop {
            let frame = read_frame(&mut reader);
            let stop = matches!(frame, Ok(None));
            out.push(frame);
            if stop {
                return out;
            }
        }
    }

    #[test]
    fn frames_split_on_newlines_and_tolerate_crlf() {
        let got = frames(b"{\"a\":1}\r\n{\"b\":2}\n");
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].as_ref().unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(got[1].as_ref().unwrap().as_deref(), Some("{\"b\":2}"));
        assert!(matches!(got[2], Ok(None)));
    }

    #[test]
    fn partial_line_at_eof_is_a_protocol_error() {
        let got = frames(b"{\"truncated\": tru");
        assert!(matches!(&got[0], Err(Error::Protocol(_))), "{:?}", got[0]);
    }

    #[test]
    fn oversized_frame_is_drained_and_the_next_frame_still_parses() {
        let mut input = vec![b'x'; MAX_FRAME_BYTES + 100];
        input.push(b'\n');
        input.extend_from_slice(b"{\"after\":true}\n");
        let got = frames(&input);
        assert!(matches!(&got[0], Err(Error::Protocol(_))), "{:?}", got[0]);
        assert_eq!(got[1].as_ref().unwrap().as_deref(), Some("{\"after\":true}"));
        assert!(matches!(got[2], Ok(None)));
        // Oversized with no newline at all (EOF while draining).
        let endless = vec![b'y'; MAX_FRAME_BYTES + 100];
        let got = frames(&endless);
        assert!(matches!(&got[0], Err(Error::Protocol(_))));
    }

    #[test]
    fn invalid_utf8_is_a_protocol_error_not_a_panic() {
        let got = frames(b"\xff\xfe\n{\"ok\":1}\n");
        assert!(matches!(&got[0], Err(Error::Protocol(_))));
        assert_eq!(got[1].as_ref().unwrap().as_deref(), Some("{\"ok\":1}"));
    }

    #[test]
    fn write_then_read_round_trips() {
        let value = Json::obj(vec![("k", Json::from("line1\nline2"))]);
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, &value).unwrap();
        // The embedded newline must have been escaped: exactly one raw '\n'.
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 1);
        let mut reader = BufReader::new(buf.as_slice());
        let line = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(parse_json(&line).unwrap(), value);
    }

    #[test]
    fn garbage_json_decodes_to_structured_errors() {
        // The server's decode steps: a frame, its JSON, then the request.
        let mut reader = BufReader::new(&b"this is not json\n"[..]);
        let frame = read_frame(&mut reader).unwrap().unwrap();
        assert!(matches!(parse_json(&frame).unwrap_err(), Error::Protocol(_)));
        let mut reader = BufReader::new(&b"[1,2,3]\n"[..]);
        let json = parse_json(&read_frame(&mut reader).unwrap().unwrap()).unwrap();
        let err = ProveRequest::from_json(&json).unwrap_err();
        assert!(matches!(err, Error::Protocol(_)));
        assert!(err.to_string().contains("object"), "{err}");
        let mut reader = BufReader::new(&b""[..]);
        assert!(read_frame(&mut reader).unwrap().is_none());
        let mut reader = BufReader::new(&b""[..]);
        assert!(read_response(&mut reader).is_err());
    }
}
