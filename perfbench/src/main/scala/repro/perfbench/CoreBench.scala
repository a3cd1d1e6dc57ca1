package repro.perfbench

import repro.automaton.{Containment, Dfa, Regex}
import repro.core.{RapqEngine, RspqEngine}
import repro.data.Queries
import repro.stream.{Op, Sgt}

/** Closed-loop runner for the core engines: one caller hands the
  * pre-generated tuples to a single-threaded engine back to back. A round is
  * one pass per query, each pass with a fresh engine; an operation is one
  * pass, and it fails if any of its result checks fails.
  */
object CoreBench {
  import Workloads._

  /** The engine calls the benchmark makes, over both semantics. */
  private sealed abstract class Eng {
    def process(t: Sgt): Unit
    def forceExpiry(ts: Long): Unit
    def results(ts: Long): Set[(Long, Long)]
    def expiryNanos: Long
    def counters: Counters
  }

  private final class Rapq(e: RapqEngine) extends Eng {
    def process(t: Sgt): Unit = e.processTuple(t)
    def forceExpiry(ts: Long): Unit = e.forceExpiry(ts)
    def results(ts: Long): Set[(Long, Long)] = e.currentResults(ts)
    def expiryNanos: Long = e.expiryNanos
    def expiryRuns: Long = e.expiryRuns
    def counters: Counters =
      Counters(e.numNodes, e.numTrees, e.emissionCount, e.expiryRuns, e.results.size, 0L)
  }

  private final class Rspq(e: RspqEngine) extends Eng {
    def process(t: Sgt): Unit = e.processTuple(t)
    def forceExpiry(ts: Long): Unit = e.forceExpiry(ts)
    def results(ts: Long): Set[(Long, Long)] = e.currentResults(ts)
    def expiryNanos: Long = e.expiryNanos
    def counters: Counters =
      Counters(e.numNodes, e.numTrees, e.emissionCount, 0L, e.results.size, e.conflictCount)
  }

  /** Engine counters at the end of a query's stream (`distinct` is the
    * cumulative distinct result set, kept only when results are collected).
    */
  final case class Counters(nodes: Long, trees: Long, emissions: Long, expiryRuns: Long,
                            distinct: Long, conflicts: Long) {
    def +(o: Counters): Counters = Counters(nodes + o.nodes, trees + o.trees,
      emissions + o.emissions, expiryRuns + o.expiryRuns, distinct + o.distinct, conflicts + o.conflicts)
  }
  private val NoCounters = Counters(0, 0, 0, 0, 0, 0)

  private def newEngine(w: Core, dfa: Dfa, collect: Boolean): Eng = w.semantics match {
    case Arbitrary => new Rapq(new RapqEngine(dfa, w.window, collectResults = collect))
    case Simple    => new Rspq(new RspqEngine(dfa, w.window, collectResults = collect))
  }

  /** Registration as a user pays for it: parse → NFA → minimal DFA per
    * query, then the engine (whose RSPQ constructor builds the containment
    * matrix).
    */
  private def setupOnce(w: Core): Seq[Dfa] = w.queries.map { q =>
    val dfa = Dfa.fromRegex(Regex.parse(q.pattern))
    newEngine(w, dfa, collect = false)
    dfa
  }

  /** A registered query with its reference results: one sorted pair array
    * per checkpoint, then one for the end of the stream.
    */
  private final class Query(val q: Queries.Q, val dfa: Dfa, val inAlphabet: Array[Boolean],
                            val expected: Array[Array[Long]])

  /** Reference results by the benchmark's own model (see [[Model]]). */
  private def expectedFor(w: Core, dfas: Seq[Dfa], cps: Array[Int]): Seq[Array[Array[Long]]] = {
    val model = new Model.WindowModel(w.window)
    var i = 0
    val perCheckpoint = (cps :+ (w.tuples.length - 1)).map { idx =>
      while (i <= idx) { model(w.tuples(i)); i += 1 }
      val edges = model.edgesAt(w.tuples(idx).ts)
      w.queries.zip(dfas).map { case (q, dfa) => expected(w, q, dfa, edges) }
    }
    w.queries.indices.map(qi => perCheckpoint.map(_(qi)))
  }

  private def expected(w: Core, q: Queries.Q, dfa: Dfa, edges: Seq[Model.Edge]): Array[Long] =
    w.semantics match {
      case Arbitrary => Model.rapq(edges, dfa)
      case Simple => q.name match {
        // Q1 has the suffix-language containment property, so its simple-path
        // results are its arbitrary-path results without the self-pairs.
        case "Q1" if Containment(dfa).hasContainmentProperty => Model.withoutSelfPairs(Model.rapq(edges, dfa))
        case "Q11" =>
          val (a, b, c) = Queries.soLabels
          require(q.pattern == s"$a $b $c", s"unexpected Q11 pattern: ${q.pattern}")
          Model.chain3(edges, a, b, c)
        case other => throw new IllegalArgumentException(s"no simple-path reference for $other")
      }
    }

  /** Names of the spans of a traced pass. */
  private final class SpanIds(t: Trace) {
    val round = t.id("round"); val check = t.id("check")
    val insert = t.id("rapq.insert"); val outside = t.id("rapq.outside")
    val slide = t.id("rapq.slide"); val delete = t.id("rapq.delete")
    val rspq = t.id("rspq.tuple")
    def pass(q: Queries.Q): Int = t.id(s"pass:${q.name}")
  }

  /** One query's pass over the stream. Checks run at each checkpoint and at
    * the end of the stream, outside the timed stretches.
    */
  private def pass(w: Core, q: Query, cps: Array[Int], m: Round, tally: Tally,
                   trace: Option[(Trace, SpanIds, Int)], heapProbe: Boolean): (Counters, Long) = {
    val heapBefore = Stats.liveHeap() // also starts every pass on a collected heap
    val eng = newEngine(w, q.dfa, collect = trace.isDefined)
    val tuples = w.tuples
    val n = tuples.length
    val mask = q.inAlphabet
    val passSpan = trace.map { case (t, ids, parent) => t.open(ids.pass(q.q), parent) }.getOrElse(-1)
    var ok = true
    def check(j: Int, ts: Long): Unit = {
      val t0 = System.nanoTime()
      val got = Model.packAll(eng.results(ts))
      if (!java.util.Arrays.equals(got, q.expected(j))) {
        ok = false
        Stats.log(s"${w.name}/${q.q.name}: results at ts=$ts differ: engine ${got.length} pairs, " +
          s"reference ${q.expected(j).length}")
      }
      trace.foreach { case (t, ids, _) => t.record(ids.check, passSpan, t0, System.nanoTime(), j) }
    }

    var i = 0; var cp = 0
    while (i < n) {
      val stop = if (cp < cps.length) cps(cp) + 1 else n
      val s0 = System.nanoTime()
      trace match {
        case None =>
          while (i < stop) {
            val t = tuples(i)
            if (mask(i)) {
              val t0 = System.nanoTime()
              eng.process(t)
              m.latency.add(System.nanoTime() - t0)
            } else eng.process(t)
            i += 1
          }
        case Some((tr, ids, _)) =>
          while (i < stop) {
            val t = tuples(i)
            val x0 = eng.expiryNanos
            val r0 = eng match { case r: Rapq => r.expiryRuns; case _ => 0L }
            val t0 = System.nanoTime()
            eng.process(t)
            val t1 = System.nanoTime()
            if (mask(i)) m.latency.add(t1 - t0)
            val name = eng match {
              case r: Rapq =>
                if (t.op == Op.Delete) ids.delete
                else if (r.expiryRuns != r0) ids.slide
                else if (mask(i)) ids.insert
                else ids.outside
              case _ => ids.rspq
            }
            tr.record(name, passSpan, t0, t1, eng.expiryNanos - x0)
            i += 1
          }
      }
      m.nanos += System.nanoTime() - s0
      if (cp < cps.length) { check(cp, tuples(i - 1).ts); cp += 1 }
    }
    m.tuples += n
    val counters = eng.counters
    eng.forceExpiry(tuples(n - 1).ts)
    check(cps.length, tuples(n - 1).ts)
    trace.foreach { case (t, _, _) => t.close(passSpan, q.expected.last.length.toLong) }
    tally.record(ok, s"${w.name}/${q.q.name}")
    val retained = if (heapProbe) Stats.liveHeap() - heapBefore else 0L
    java.lang.ref.Reference.reachabilityFence(eng)
    (counters, retained)
  }

  /** The workload's input for one round, with its checkpoints and reference
    * results, all computed before the round is timed.
    */
  private final class Prepared(val w: Core, val cps: Array[Int], val queries: Seq[Query])

  private def prepare(w: Core, dfas: Seq[Dfa]): Prepared = {
    val cps = Model.checkpoints(w.tuples, w.window, 3)
    val expected = expectedFor(w, dfas, cps)
    val queries = w.queries.indices.map { qi =>
      val dfa = dfas(qi)
      new Query(w.queries(qi), dfa, w.tuples.map(t => dfa.alphabet.contains(t.label)), expected(qi))
    }
    Stats.log(s"${w.name}: ${w.tuples.length} tuples, checkpoints at ${cps.mkString(",")}; reference " +
      "result sizes at end " + queries.map(q => s"${q.q.name}=${q.expected.last.length}").mkString(" "))
    new Prepared(w, cps, queries)
  }

  /** Runs the workload: set-up, a warm-up, then as many whole rounds as fit
    * in `seconds` (at least one). Round `r` runs on the stream generated for
    * `(seed, firstRound + r)`, so a run covers several inputs and each timing is a median
    * over rounds. The first round also probes each engine's retained heap.
    * With `traced`, each round runs untraced and then traced on the same
    * stream, and the per-layer metrics come from the traced passes.
    */
  def run(name: String, seed: Long, firstRound: Int, seconds: Double, traced: Option[Trace]): Outcome = {
    val first = Workloads.core(name, seed, firstRound)
    val dfas = setupOnce(first)
    first.queries.zip(dfas).foreach { case (q, dfa) =>
      Model.dfaDisagreement(q.pattern, dfa, maxLen = 5).foreach { word =>
        throw new IllegalStateException(s"${q.name}: DFA and regex disagree on ${word.mkString(" ")}")
      }
    }

    // warm-up: every query over the whole of round 0's stream, unchecked
    dfas.foreach { dfa =>
      val eng = newEngine(first, dfa, collect = traced.isDefined)
      first.tuples.foreach(eng.process)
      eng.results(first.tuples.last.ts)
    }
    // set-up is sampled after every round, so that its median spans the
    // whole run; one sample registers the workload's queries ten times over.
    // Its warm-up must be long enough for the JIT compiler to finish with
    // it: after half a second of warm-up, set-up read up to twice as slow,
    // and samples taken right after 1.5 s still read slow in some JVMs.
    def registerTen(): Unit = (1 to 10).foreach(_ => setupOnce(first))
    Stats.warm(1.5)(registerTen())
    val setupSamples = Seq.newBuilder[Double]

    val tally = new Tally
    val plain = Seq.newBuilder[Round]
    val tracedRounds = Seq.newBuilder[Round]
    var counters = NoCounters
    var heap = 0L
    val start = System.nanoTime()
    var rounds = 0
    var roundNs = 0L
    // whole rounds while the next one is expected to end within `seconds`
    while (rounds == 0 || System.nanoTime() - start + roundNs <= seconds * 1e9) {
      val r0 = System.nanoTime()
      val p = prepare(if (rounds == 0) first else Workloads.core(name, seed, firstRound + rounds), dfas)
      val round = new Round
      p.queries.foreach { q =>
        heap = math.max(heap, pass(p.w, q, p.cps, round, tally, None, heapProbe = rounds == 0)._2)
      }
      plain += round
      traced.foreach { tr =>
        val ids = new SpanIds(tr)
        val roundSpan = tr.open(ids.round, -1)
        val tracedRound = new Round
        p.queries.foreach { q =>
          counters += pass(p.w, q, p.cps, tracedRound, tally, Some((tr, ids, roundSpan)), heapProbe = false)._1
        }
        tr.close(roundSpan)
        tracedRounds += tracedRound
      }
      setupSamples ++= Stats.times(SetupSamples)(registerTen())
      rounds += 1
      roundNs = System.nanoTime() - r0
    }
    Stats.log(s"$name: $rounds rounds, ${tally.attempted} passes, per-round throughput " +
      plain.result().map(r => f"${r.tuples / (r.nanos / 1e9)}%.0f").mkString(" "))

    val correct = tally.failed == 0
    val setupS = Stats.median(setupSamples.result()) / 10
    traced match {
      case None => Outcome(correct, tally.attempted, tally.failed, Round.endToEnd(plain.result(), heap, setupS))
      case Some(tr) =>
        val perRound = tracedRounds.result().size.toDouble
        def s(ns: Long): Double = ns / 1e9 / perRound
        val c = counters
        val layer = first.semantics match {
          case Arbitrary => Seq(
            "core.rapq.insert_s"       -> Metric(s(tr.nanos("rapq.insert") + tr.nanos("rapq.outside")), "s"),
            "core.rapq.slide_expiry_s" -> Metric(s(tr.auxSum("rapq.slide")), "s"),
            "core.rapq.delete_s"       -> Metric(s(tr.nanos("rapq.delete")), "s"),
            "core.rapq.delete_expiry_s" -> Metric(s(tr.auxSum("rapq.delete")), "s"),
            "core.rapq.expiry_runs"    -> Metric(c.expiryRuns / perRound, "count"),
            "core.rapq.nodes"          -> Metric(c.nodes / perRound, "count"),
            "core.rapq.trees"          -> Metric(c.trees / perRound, "count"),
            "core.rapq.emissions"      -> Metric(c.emissions / perRound, "count"),
            "core.rapq.distinct_per_emission" -> Metric(c.distinct.toDouble / c.emissions, "ratio"),
          )
          case Simple => Seq(
            "core.rspq.insert_s"  -> Metric(s(tr.nanos("rspq.tuple") - tr.auxSum("rspq.tuple")), "s"),
            "core.rspq.expiry_s"  -> Metric(s(tr.auxSum("rspq.tuple")), "s"),
            "core.rspq.conflicts" -> Metric(c.conflicts / perRound, "count"),
            "core.rspq.nodes"     -> Metric(c.nodes / perRound, "count"),
            "core.rspq.emissions" -> Metric(c.emissions / perRound, "count"),
            "core.rspq.distinct_per_emission" -> Metric(c.distinct.toDouble / c.emissions, "ratio"),
          )
        }
        val overhead = 100.0 * (1.0 - Round.throughput(tracedRounds.result()) / Round.throughput(plain.result()))
        val automaton = Layers.automaton(first.queries, tr)
        val stream = Layers.stream(first.tuples, first.window, first.queries.size, tr)
        Outcome(correct, tally.attempted, tally.failed,
          automaton ++ stream ++ layer :+ ("trace.overhead_pct" -> Metric(overhead, "%")))
    }
  }

  /** Set-up samples taken after each round. */
  private val SetupSamples = 31

  /** Deterministic counts of one pass per query, for the fingerprint:
    * counters at the end of the stream, and the result-set size after a
    * final expiry pass.
    */
  def fingerprint(w: Core): Seq[(String, Counters, Long)] = w.queries.map { q =>
    val eng = newEngine(w, q.dfa, collect = false)
    w.tuples.foreach(eng.process)
    val c = eng.counters
    val last = w.tuples.last.ts
    eng.forceExpiry(last)
    (q.name, c, eng.results(last).size.toLong)
  }
}
