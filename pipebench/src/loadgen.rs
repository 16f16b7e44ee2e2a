//! Open-loop load generation through `serve_stream`.
//!
//! The thread that calls `serve_stream` is the only generator: it reads the
//! request stream through [`Paced`], which sleeps until the next request is
//! due and then hands over every line that is due. Requests are timed from
//! when they were *due*, so a stall charges its wait to every later
//! request, and the generator's own lateness is recorded.

use std::io::{BufRead, Read, Write};
use std::time::{Duration, Instant};

use pipesched_service::{serve_stream, ServeConfig, ServiceEngine};

/// A request stream released on a schedule.
struct Paced<'a> {
    text: &'a [u8],
    /// End offset (after the newline) of each line.
    ends: &'a [usize],
    due: &'a [Duration],
    t0: Instant,
    pos: usize,
    released: Vec<Instant>,
}

impl Read for Paced<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Paced<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let mut end = self
            .released
            .len()
            .checked_sub(1)
            .map_or(0, |i| self.ends[i]);
        if self.pos >= end {
            let next = self.released.len();
            if next == self.ends.len() {
                return Ok(&[]);
            }
            let due = self.t0 + self.due[next];
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let now = Instant::now();
            while self.released.len() < self.ends.len()
                && self.t0 + self.due[self.released.len()] <= now
            {
                self.released.push(now);
            }
            end = self.ends[self.released.len() - 1];
        }
        Ok(&self.text[self.pos..end])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// Response sink: records when each response line was written.
#[derive(Default)]
struct Sink {
    partial: Vec<u8>,
    lines: Vec<(Instant, String)>,
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.lines.push((Instant::now(), line));
                self.partial.clear();
            } else {
                self.partial.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one open-loop phase measured.
pub struct Run {
    /// Response lines in output (= request) order.
    pub responses: Vec<String>,
    /// Due-to-response latency per answered request, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Release minus due per request, milliseconds.
    pub late_ms: Vec<f64>,
    /// Most requests released but not yet answered at any instant.
    pub backlog_max: usize,
}

/// Serve `lines` (each without its newline) at `rate` requests per second
/// through `serve_stream` with `workers` workers.
pub fn run(engine: &ServiceEngine, lines: &[&str], rate: f64, workers: usize) -> Run {
    let mut text = Vec::new();
    let mut ends = Vec::with_capacity(lines.len());
    for line in lines {
        text.extend_from_slice(line.as_bytes());
        text.push(b'\n');
        ends.push(text.len());
    }
    let due: Vec<Duration> = (0..lines.len())
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let mut sink = Sink::default();
    let t0 = Instant::now();
    let mut paced = Paced {
        text: &text,
        ends: &ends,
        due: &due,
        t0,
        pos: 0,
        released: Vec::with_capacity(lines.len()),
    };
    serve_stream(engine, &mut paced, &mut sink, &ServeConfig { workers })
        .expect("in-memory streams cannot fail");

    let released = paced.released;
    let late_ms: Vec<f64> = released
        .iter()
        .zip(&due)
        .map(|(r, d)| r.duration_since(t0 + *d).as_secs_f64() * 1e3)
        .collect();
    let latency_ms: Vec<f64> = sink
        .lines
        .iter()
        .zip(&due)
        .map(|((at, _), d)| at.saturating_duration_since(t0 + *d).as_secs_f64() * 1e3)
        .collect();
    let answered: Vec<Instant> = sink.lines.iter().map(|(at, _)| *at).collect();
    let backlog = backlog_at_releases(&released, &answered);
    Run {
        responses: sink.lines.into_iter().map(|(_, l)| l).collect(),
        latency_ms,
        late_ms,
        backlog_max: backlog.iter().copied().max().unwrap_or(0),
    }
}

/// Outstanding requests (released, not yet answered) right after each
/// release. Both inputs are ascending.
pub fn backlog_at_releases(released: &[Instant], answered: &[Instant]) -> Vec<usize> {
    let mut done = 0usize;
    released
        .iter()
        .enumerate()
        .map(|(i, r)| {
            while done < answered.len() && answered[done] <= *r {
                done += 1;
            }
            i + 1 - done.min(i + 1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_reader_releases_lines_in_order_and_on_time() {
        let text = b"a\nbb\nccc\n";
        let ends = [2, 5, 9];
        let due = [
            Duration::ZERO,
            Duration::from_millis(5),
            Duration::from_millis(10),
        ];
        let t0 = Instant::now();
        let mut p = Paced {
            text,
            ends: &ends,
            due: &due,
            t0,
            pos: 0,
            released: Vec::new(),
        };
        let lines: Vec<String> = (&mut p).lines().map(|l| l.expect("in memory")).collect();
        assert_eq!(lines, ["a", "bb", "ccc"]);
        assert_eq!(p.released.len(), 3);
        for (r, d) in p.released.iter().zip(due) {
            assert!(*r >= t0 + d, "released before due");
        }
    }

    #[test]
    fn backlog_counts_released_but_unanswered() {
        let t = Instant::now();
        let ms = |n| t + Duration::from_millis(n);
        let released = [ms(0), ms(1), ms(2), ms(10)];
        let answered = [ms(3), ms(4), ms(5), ms(11)];
        assert_eq!(backlog_at_releases(&released, &answered), vec![1, 2, 3, 1]);
    }
}
