//! Parsers for what the `fae` CLI prints. The end-to-end harness sees
//! the program only through its command line and its standard output,
//! so these are the benchmark's whole view of a round's result.

/// The leading number of `s` (sign, digits, one dot), parsed.
fn leading_number<T: std::str::FromStr>(s: &str) -> Option<T> {
    let end = s
        .char_indices()
        .find(|&(i, c)| !(c.is_ascii_digit() || c == '.' || (i == 0 && c == '-')))
        .map_or(s.len(), |(i, _)| i);
    s[..end].parse().ok()
}

/// The number that follows the first occurrence of `key` in `text`.
fn number_after<T: std::str::FromStr>(text: &str, key: &str) -> Option<T> {
    let at = text.find(key)? + key.len();
    leading_number(text[at..].trim_start())
}

/// What a `fae train` round printed.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainOutput {
    /// `test accuracy`, as a fraction.
    pub accuracy: f64,
    /// Test loss.
    pub loss: f64,
    /// Simulated seconds, rounded to one decimal by the CLI.
    pub simulated_s: f64,
    /// Hot/cold transitions ("syncs").
    pub syncs: u64,
    /// `model digest`, the hex text as printed.
    pub digest: String,
}

/// Parses the result lines of `fae train`.
pub fn parse_train(stdout: &str) -> Result<TrainOutput, String> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("test accuracy "))
        .ok_or("no 'test accuracy' line in fae train output")?;
    let need = |key: &str| {
        number_after::<f64>(line, key).ok_or_else(|| format!("no number after '{key}' in: {line}"))
    };
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("model digest "))
        .map(|d| d.trim().to_string())
        .filter(|d| !d.is_empty() && d.chars().all(|c| c.is_ascii_hexdigit()))
        .ok_or("no 'model digest' line in fae train output")?;
    Ok(TrainOutput {
        accuracy: need("test accuracy ")? / 100.0,
        loss: need("| loss ")?,
        simulated_s: need("| simulated ")?,
        syncs: line
            .split(" | ")
            .find_map(|f| f.strip_suffix(" syncs"))
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| format!("no sync count in: {line}"))?,
        digest,
    })
}

/// What a `fae serve` round printed.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOutput {
    /// Requests completed.
    pub completed: u64,
    /// Requests refused by the bounded queue.
    pub rejected: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Mean micro-batch size.
    pub mean_batch_size: f64,
    /// Cache hit rate.
    pub hit_rate: f64,
    /// Mean predicted score (a cheap fingerprint of the outputs).
    pub mean_score: f64,
}

/// Parses the result lines of `fae serve`.
pub fn parse_serve(stdout: &str) -> Result<ServeOutput, String> {
    let line_with = |prefix: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .ok_or_else(|| format!("no '{prefix}' line in fae serve output"))
    };
    let done = line_with("completed ")?;
    let cache = line_with("cache: ")?;
    let bad = |line: &str| format!("cannot parse: {line}");
    Ok(ServeOutput {
        completed: number_after(done, "completed ").ok_or_else(|| bad(done))?,
        rejected: number_after(done, "/ rejected ").ok_or_else(|| bad(done))?,
        batches: number_after(done, " in ").ok_or_else(|| bad(done))?,
        mean_batch_size: number_after(done, "(mean size ").ok_or_else(|| bad(done))?,
        hit_rate: number_after(cache, "hit rate ").ok_or_else(|| bad(cache))?,
        mean_score: number_after(cache, "| mean score ").ok_or_else(|| bad(cache))?,
    })
}

/// What `fae preprocess` printed.
#[derive(Clone, Debug, PartialEq)]
pub struct PreprocessOutput {
    /// Pure-hot mini-batches written.
    pub hot_batches: u64,
    /// Pure-cold mini-batches written.
    pub cold_batches: u64,
    /// Share of inputs classified hot.
    pub hot_input_fraction: f64,
}

/// Parses the result line of `fae preprocess`.
pub fn parse_preprocess(stdout: &str) -> Result<PreprocessOutput, String> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("wrote "))
        .ok_or("no 'wrote' line in fae preprocess output")?;
    let bad = || format!("cannot parse: {line}");
    Ok(PreprocessOutput {
        hot_batches: number_after(line, "wrote ").ok_or_else(bad)?,
        cold_batches: number_after(line, "hot / ").ok_or_else(bad)?,
        hot_input_fraction: number_after::<f64>(line, "batches (").ok_or_else(bad)? / 100.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from the release binary.
    const TRAIN: &str = "loaded preprocessed stream for 'rmc1-taobao'\n\
        coordinator on 127.0.0.1:36387, 1 node processes spawned\n\
        test accuracy 62.50% | loss 0.6567 | simulated 19.3s | 4 syncs | final rate R(50)\n\
        model digest 370b91b8\n";
    const SERVE: &str = "no checkpoint found; serving an untrained model (latency and cache behaviour are representative, scores are not)\n\
        completed 192000 / rejected 0 in 6000 batches (mean size 32.0) over 0.9901 simulated s\n\
        latency: p50 0.330 ms  p95 0.332 ms  p99 0.333 ms  max 0.363 ms | throughput 193923.1 req/s\n\
        cache: hit rate 0.9890 (4909487 pinned + 27706 dynamic hits, 54807 misses) | mean score 0.5017\n";
    const PREP: &str = "wrote 110 hot / 47 cold batches (70.3% hot inputs) to k.fae\n";

    #[test]
    fn train_output() {
        let t = parse_train(TRAIN).unwrap();
        assert!((t.accuracy - 0.625).abs() < 1e-12);
        assert_eq!((t.loss, t.simulated_s, t.syncs), (0.6567, 19.3, 4));
        assert_eq!(t.digest, "370b91b8");
        assert!(parse_train("test accuracy 1% | loss 1 | simulated 1s | 1 syncs\n").is_err());
        assert!(parse_train("model digest 00\n").is_err());
    }

    #[test]
    fn serve_output() {
        let s = parse_serve(SERVE).unwrap();
        assert_eq!((s.completed, s.rejected, s.batches), (192_000, 0, 6_000));
        assert_eq!((s.mean_batch_size, s.hit_rate, s.mean_score), (32.0, 0.989, 0.5017));
        assert!(parse_serve("completed 3 / rejected 0").is_err());
    }

    #[test]
    fn preprocess_output() {
        let p = parse_preprocess(PREP).unwrap();
        assert_eq!((p.hot_batches, p.cold_batches), (110, 47));
        assert!((p.hot_input_fraction - 0.703).abs() < 1e-12);
        assert!(parse_preprocess("nothing").is_err());
    }
}
