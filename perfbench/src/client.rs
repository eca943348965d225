//! The benchmark's own RGNP load generator.
//!
//! Open loop: one generator thread sends frame `i` when it falls due on a
//! fixed schedule, sleeping until then rather than spinning, and one
//! reader thread per connection stamps each reply. Latency runs from the
//! scheduled send time, so a stall also counts against the frames queued
//! behind it. A frame answered `BUSY` is sent again after `RETRY_AFTER`,
//! as the protocol asks of a client, and its latency still runs from its
//! first scheduled send. Closed loop: one thread per connection keeps a
//! fixed window of frames in flight.

use reghd_net::frame::{self, status, FrameBuf, Step};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::procstat;
use crate::stats::Schedule;

/// Which reference answer a row is checked against: the row pool of
/// population model `model`, row `row`. `model == UNCHECKED` marks rows
/// whose served version is not fixed (the streaming trainer's key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRef {
    pub model: u32,
    pub row: u32,
}

pub const UNCHECKED: u32 = u32::MAX;

/// How long after a `BUSY` reply the open loop sends the frame again.
pub const RETRY_AFTER: Duration = Duration::from_millis(20);

/// One request frame, encoded with request id 0; the id is patched in at
/// send time.
#[derive(Debug, Clone)]
pub struct Frame {
    pub bytes: Vec<u8>,
    pub rows: Vec<RowRef>,
    pub binary: bool,
    pub key: String,
}

/// Per-row `(status, value)` of one reply, or the error text of a frame
/// that could not be answered row by row.
pub type Answer = Result<Vec<(u8, f32)>, String>;

#[derive(Debug, Clone)]
pub struct Reply {
    pub req_id: u64,
    pub at: Instant,
    pub answer: Answer,
}

/// What happened to one sent frame.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub plan_idx: usize,
    pub due: Instant,
    pub sent: Instant,
    pub reply: Option<(Instant, Answer)>,
}

pub fn decode_reply(f: &frame::Frame) -> Answer {
    match f.kind {
        status::ERR => Err(String::from_utf8_lossy(&f.payload).into_owned()),
        status::BUSY | status::DRAINING if f.payload.is_empty() => Ok(vec![(f.kind, f32::NAN)]),
        status::OK | status::DEGRADED if f.payload.len() == 4 => {
            frame::decode_value_reply(&f.payload)
                .map(|v| vec![(f.kind, v)])
                .map_err(str::to_string)
        }
        _ => frame::decode_batch_reply(&f.payload).map_err(str::to_string),
    }
}

fn patch_id(buf: &mut Vec<u8>, frame: &[u8], id: u64) {
    buf.clear();
    buf.extend_from_slice(frame);
    buf[5..13].copy_from_slice(&id.to_le_bytes());
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// Whether any row of the reply was refused `BUSY`.
fn is_busy(answer: &Answer) -> bool {
    matches!(answer, Ok(rows) if rows.iter().any(|&(st, _)| st == status::BUSY))
}

/// Reads replies until the peer or a local shutdown closes the stream.
/// A `BUSY` reply goes to `retry` with its arrival time; every other reply
/// is final and counts in `received`. Returns the replies in arrival order
/// with the thread's CPU time.
fn read_replies(
    mut stream: TcpStream,
    received: &AtomicUsize,
    retry: &mpsc::Sender<(u64, Instant)>,
) -> (Vec<Reply>, u64) {
    let mut fb = FrameBuf::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut out = Vec::new();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return (out, procstat::thread_cpu_ns()),
            Ok(n) => n,
        };
        let at = Instant::now();
        fb.extend(&buf[..n]);
        loop {
            match fb.next_frame(frame::DEFAULT_MAX_FRAME) {
                Step::Ready(f) => {
                    let answer = decode_reply(&f);
                    if is_busy(&answer) {
                        let _ = retry.send((f.req_id, at));
                    } else {
                        received.fetch_add(1, Ordering::Relaxed);
                    }
                    out.push(Reply {
                        req_id: f.req_id,
                        at,
                        answer,
                    });
                }
                Step::Incomplete => break,
                Step::Violation(_) => return (out, procstat::thread_cpu_ns()),
            }
        }
    }
}

/// Result of one open-loop phase.
#[derive(Debug)]
pub struct OpenRun {
    pub outcomes: Vec<Outcome>,
    /// From when frame 0 was due until the last scheduled send.
    pub elapsed: Duration,
    /// CPU the generator and reader threads used.
    pub client_cpu_ns: u64,
    /// Frames sent again after a `BUSY` reply.
    pub retries: usize,
}

/// Sends `sched.frames` frames (cycling through `plan`) on `conns`
/// connections at the schedule's fixed rate, sends each frame answered
/// `BUSY` again `RETRY_AFTER` later, on the same connection, and waits up
/// to `drain` after the last scheduled send for the remaining answers.
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    plan: &Arc<Vec<Frame>>,
    sched: Schedule,
    drain: Duration,
) -> io::Result<OpenRun> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(addr))
        .collect::<io::Result<_>>()?;
    let received = Arc::new(AtomicUsize::new(0));
    let (retry_tx, retry_rx) = mpsc::channel();
    let readers: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let s = s.try_clone()?;
            let received = received.clone();
            let retry = retry_tx.clone();
            thread::Builder::new()
                .name(format!("bench-rx-{i}"))
                .spawn(move || read_replies(s, &received, &retry))
        })
        .collect::<io::Result<_>>()?;
    drop(retry_tx);
    let writers: Vec<TcpStream> = streams
        .iter()
        .map(TcpStream::try_clone)
        .collect::<io::Result<_>>()?;
    let gen_plan = plan.clone();
    let gen_received = received.clone();
    let base = Instant::now() + Duration::from_millis(20);
    let generator = thread::Builder::new().name("bench-gen".to_string()).spawn(
        move || -> io::Result<Generated> {
            let mut writers = writers;
            let mut sent = Vec::with_capacity(sched.frames);
            let mut buf = Vec::new();
            // Frame `id` always goes out on connection `id % n`, so its
            // reader sees a retry's answer after the `BUSY` it replaces.
            let mut send = |id: usize| -> io::Result<()> {
                patch_id(&mut buf, &gen_plan[id % gen_plan.len()].bytes, id as u64);
                let n = writers.len();
                writers[id % n].write_all(&buf)
            };
            let mut pending: BinaryHeap<Reverse<(Instant, u64)>> = BinaryHeap::new();
            let mut retries = 0;
            let mut i = 0;
            let mut drain_until = None;
            loop {
                pending.extend(
                    retry_rx
                        .try_iter()
                        .map(|(id, at)| Reverse((at + RETRY_AFTER, id))),
                );
                let now = Instant::now();
                let next_retry = pending.peek().map(|r| r.0 .0);
                if next_retry.is_some_and(|t| t <= now) {
                    let Reverse((_, id)) = pending.pop().expect("peeked");
                    send(id as usize)?;
                    retries += 1;
                    continue;
                }
                if i < sched.frames {
                    let due = base + sched.due(i);
                    if due <= now {
                        send(i)?;
                        sent.push((due, Instant::now()));
                        i += 1;
                    } else {
                        thread::sleep(next_retry.map_or(due, |t| t.min(due)) - now);
                    }
                    continue;
                }
                let until = *drain_until.get_or_insert(now + drain);
                if gen_received.load(Ordering::Relaxed) >= sched.frames || now >= until {
                    break;
                }
                let wait = Duration::from_millis(1).min(next_retry.unwrap_or(until) - now);
                match retry_rx.recv_timeout(wait) {
                    Ok((id, at)) => pending.push(Reverse((at + RETRY_AFTER, id))),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => thread::sleep(wait),
                }
            }
            Ok(Generated {
                sent,
                cpu_ns: procstat::thread_cpu_ns(),
                retries,
            })
        },
    )?;
    let generated = generator
        .join()
        .map_err(|_| io::Error::other("generator thread panicked"))??;
    let mut client_cpu_ns = generated.cpu_ns;
    let sent = generated.sent;
    let last_send = sent.last().map_or(base, |s| s.1);
    let elapsed = last_send.saturating_duration_since(base);
    for s in &streams {
        let _ = s.shutdown(Shutdown::Both);
    }
    let mut replies: Vec<Option<(Instant, Answer)>> = vec![None; sched.frames];
    for r in readers {
        let (reps, cpu) = r
            .join()
            .map_err(|_| io::Error::other("reader thread panicked"))?;
        client_cpu_ns += cpu;
        for rep in reps {
            if let Some(slot) = replies.get_mut(rep.req_id as usize) {
                *slot = Some((rep.at, rep.answer));
            }
        }
    }
    let outcomes = sent
        .into_iter()
        .zip(replies)
        .enumerate()
        .map(|(i, ((due, sent), reply))| Outcome {
            plan_idx: i % plan.len(),
            due,
            sent,
            reply,
        })
        .collect();
    Ok(OpenRun {
        outcomes,
        elapsed,
        client_cpu_ns,
        retries: generated.retries,
    })
}

/// What the open-loop generator thread returns: `(due, sent)` of each
/// scheduled frame's first send, its CPU time, and the frames it re-sent.
struct Generated {
    sent: Vec<(Instant, Instant)>,
    cpu_ns: u64,
    retries: usize,
}

/// Result of one closed-loop phase: every frame sent, and the measured
/// window in which replies count.
#[derive(Debug)]
pub struct ClosedRun {
    pub outcomes: Vec<Outcome>,
    pub client_cpu_ns: u64,
    pub start: Instant,
    pub end: Instant,
    /// CPU every thread of the process used inside the window.
    pub window_cpu_ns: u64,
}

/// Keeps `window` frames in flight on each of `conns` connections for
/// `dur`; each reply releases the next frame on its connection.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    plan: &Arc<Vec<Frame>>,
    window: usize,
    dur: Duration,
) -> io::Result<ClosedRun> {
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + dur;
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let stream = connect(addr)?;
            let plan = plan.clone();
            thread::Builder::new()
                .name(format!("bench-cl-{c}"))
                .spawn(move || closed_conn(stream, c, conns, &plan, window, start, end))
        })
        .collect::<io::Result<_>>()?;
    sleep_until(start);
    let before = procstat::sample();
    sleep_until(end);
    let window_cpu_ns = procstat::Usage::between(&before, &procstat::sample())
        .group("")
        .0;
    let mut outcomes = Vec::new();
    let mut client_cpu_ns = 0;
    for h in handles {
        let (o, cpu) = h
            .join()
            .map_err(|_| io::Error::other("client thread panicked"))??;
        outcomes.extend(o);
        client_cpu_ns += cpu;
    }
    Ok(ClosedRun {
        outcomes,
        client_cpu_ns,
        start,
        end,
        window_cpu_ns,
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        thread::sleep(t - now);
    }
}

fn closed_conn(
    mut stream: TcpStream,
    c: usize,
    conns: usize,
    plan: &[Frame],
    window: usize,
    start: Instant,
    end: Instant,
) -> io::Result<(Vec<Outcome>, u64)> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    sleep_until(start);
    // Frame k of this connection is global frame `c + k·conns`; its id is k.
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut buf = Vec::new();
    let mut send = |stream: &mut TcpStream, outcomes: &mut Vec<Outcome>| -> io::Result<()> {
        let k = outcomes.len();
        let plan_idx = (c + k * conns) % plan.len();
        patch_id(&mut buf, &plan[plan_idx].bytes, k as u64);
        let now = Instant::now();
        stream.write_all(&buf)?;
        outcomes.push(Outcome {
            plan_idx,
            due: now,
            sent: now,
            reply: None,
        });
        Ok(())
    };
    for _ in 0..window {
        send(&mut stream, &mut outcomes)?;
    }
    let mut outstanding = window;
    let mut fb = FrameBuf::new();
    let mut rbuf = vec![0u8; 64 * 1024];
    while outstanding > 0 {
        let n = match stream.read(&mut rbuf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let at = Instant::now();
        fb.extend(&rbuf[..n]);
        while let Step::Ready(f) = fb.next_frame(frame::DEFAULT_MAX_FRAME) {
            if let Some(o) = outcomes.get_mut(f.req_id as usize) {
                o.reply = Some((at, decode_reply(&f)));
            }
            outstanding -= 1;
            if at < end {
                send(&mut stream, &mut outcomes)?;
                outstanding += 1;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    Ok((outcomes, procstat::thread_cpu_ns()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_decode_by_shape() {
        let mut out = Vec::new();
        frame::encode_value_reply(&mut out, status::DEGRADED, 3, 1.5);
        frame::encode_batch_reply(&mut out, 4, &[(status::OK, 2.0), (status::BUSY, 0.0)]);
        frame::encode_empty_reply(&mut out, status::BUSY, 5);
        frame::encode_text_reply(&mut out, status::ERR, 6, "nope");
        let mut fb = FrameBuf::new();
        fb.extend(&out);
        let mut got = Vec::new();
        while let Step::Ready(f) = fb.next_frame(frame::DEFAULT_MAX_FRAME) {
            got.push((f.req_id, decode_reply(&f)));
        }
        assert_eq!(got[0], (3, Ok(vec![(status::DEGRADED, 1.5)])));
        assert_eq!(
            got[1],
            (4, Ok(vec![(status::OK, 2.0), (status::BUSY, 0.0)]))
        );
        assert_eq!(got[2].1.as_ref().unwrap()[0].0, status::BUSY);
        assert_eq!(got[3], (6, Err("nope".to_string())));
    }

    /// Answers the first send of every request `BUSY` and the next one OK.
    fn busy_once_server(conn: TcpStream) {
        let mut seen = std::collections::HashSet::new();
        let mut fb = FrameBuf::new();
        let mut buf = vec![0u8; 4096];
        let mut reader = conn.try_clone().unwrap();
        let mut writer = conn;
        while let Ok(n @ 1..) = reader.read(&mut buf) {
            fb.extend(&buf[..n]);
            let mut out = Vec::new();
            while let Step::Ready(f) = fb.next_frame(frame::DEFAULT_MAX_FRAME) {
                if seen.insert(f.req_id) {
                    frame::encode_empty_reply(&mut out, status::BUSY, f.req_id);
                } else {
                    frame::encode_value_reply(&mut out, status::OK, f.req_id, 1.0);
                }
            }
            if writer.write_all(&out).is_err() {
                return;
            }
        }
    }

    #[test]
    fn open_loop_sends_busy_frames_again() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let conns: Vec<_> = (0..2).map(|_| listener.accept().unwrap().0).collect();
            let handles: Vec<_> = conns
                .into_iter()
                .map(|c| thread::spawn(move || busy_once_server(c)))
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let mut bytes = Vec::new();
        frame::encode_predict_tier(&mut bytes, 0, "m", &[1.0], frame::PredictionTier::Full);
        let plan = Arc::new(vec![Frame {
            bytes,
            rows: vec![RowRef { model: 0, row: 0 }],
            binary: false,
            key: "m".to_string(),
        }]);
        let sched = Schedule::new(1000.0, 1, 0.02);
        let run = open_loop(addr, 2, &plan, sched, Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        assert_eq!(run.outcomes.len(), 20);
        assert_eq!(run.retries, 20);
        for o in &run.outcomes {
            let (at, answer) = o.reply.as_ref().expect("every frame answered");
            assert_eq!(answer, &Ok(vec![(status::OK, 1.0)]));
            assert!(at.duration_since(o.due) >= RETRY_AFTER);
        }
    }
}
