package repro.perfbench

import java.lang.management.ManagementFactory

/** Growable buffer of nanosecond samples with nearest-rank percentiles. */
final class LongBuf(initial: Int = 1 << 16) {
  private var a = new Array[Long](initial)
  private var n = 0

  def add(x: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = x
    n += 1
  }

  def size: Int = n

  def addAll(o: LongBuf): Unit = { var i = 0; while (i < o.n) { add(o.a(i)); i += 1 } }

  /** Nearest-rank percentile, `q` in (0, 1]. */
  def percentile(q: Double): Long = {
    require(n > 0, "no samples")
    val s = java.util.Arrays.copyOf(a, n)
    java.util.Arrays.sort(s)
    s(math.min(n - 1, math.max(0, math.ceil(q * n).toInt - 1)))
  }
}

/** Samples of one round of a workload. */
final class Round {
  val latency = new LongBuf() // per in-alphabet tuple, ns
  var nanos   = 0L            // wall time of handing the round's tuples over
  var tuples  = 0L
}

object Round {
  /** Tuples per second over all of `rounds`. */
  def throughput(rounds: Seq[Round]): Double = rounds.map(_.tuples).sum / (rounds.map(_.nanos).sum / 1e9)

  /** The end-to-end metrics. Each timing is the median over the rounds of
    * its value in one round, so that one disturbed round does not move it;
    * p99.9 pools all rounds' samples, as one round has too few beyond it.
    */
  def endToEnd(rounds: Seq[Round], heapBytes: Long, setupS: Double): Seq[(String, Metric)] = {
    def med(f: Round => Double): Double = Stats.median(rounds.map(f))
    val pooled = new LongBuf()
    rounds.foreach(r => pooled.addAll(r.latency))
    Seq(
      "throughput_tps"    -> Metric(med(r => r.tuples / (r.nanos / 1e9)), "tuples/s"),
      "latency_p50_us"    -> Metric(med(_.latency.percentile(0.50) / 1e3), "us"),
      "latency_p99_us"    -> Metric(med(_.latency.percentile(0.99) / 1e3), "us"),
      "latency_p999_us"   -> Metric(pooled.percentile(0.999) / 1e3, "us"),
      "heap_retained_mb"  -> Metric(heapBytes / 1e6, "MB"),
      "setup_s"           -> Metric(setupS, "s"),
    )
  }
}

/** One reported metric. */
final case class Metric(value: Double, unit: String)

/** What a run prints as its last line. */
final case class Outcome(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Metric)]) {
  def json: String = {
    def num(d: Double): String = {
      require(!d.isNaN && !d.isInfinite, s"metric is not a number: $d")
      java.lang.Double.toString(d)
    }
    val ms = metrics.map { case (k, m) => s""""$k": {"value": ${num(m.value)}, "unit": "${m.unit}"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Operations attempted and failed, with the first failures' descriptions. */
final class Tally {
  var attempted = 0L
  var failed    = 0L
  def record(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (failed <= 5) Console.err.println(s"[perfbench] check failed: $what")
    }
  }
}

object Stats {
  /** Calls `f` for `seconds` (at least three times), so that its classes
    * are loaded and compiled.
    */
  def warm(seconds: Double)(f: => Unit): Unit = {
    val until = System.nanoTime() + (seconds * 1e9).toLong
    var n = 0
    while (n < 3 || System.nanoTime() < until) { f; n += 1 }
  }

  /** The times (s) of `reps` calls of `f`. */
  def times(reps: Int)(f: => Unit): Seq[Double] =
    (1 to reps).map { _ => val t0 = System.nanoTime(); f; (System.nanoTime() - t0) / 1e9 }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Live heap in bytes after a full collection. */
  def liveHeap(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")
}
