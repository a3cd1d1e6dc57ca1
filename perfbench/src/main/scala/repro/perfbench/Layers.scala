package repro.perfbench

import repro.automaton.{Containment, Dfa, Regex}
import repro.data.Queries
import repro.stream.{Op, Sgt, SnapshotGraph, WindowSpec}

/** Per-layer measurements of the traced run that time a layer from outside,
  * by calling it directly on the workload's own queries and tuples.
  */
object Layers {
  private val Reps = 15

  /** `automaton.register_ms`: parse + minimal DFA of every query;
    * `automaton.containment_ms`: the containment matrix of every query's DFA.
    * Each is the median of repeated registrations.
    */
  def automaton(queries: Seq[Queries.Q], tr: Trace): Seq[(String, Metric)] = {
    val setup = tr.id("setup")
    val reg = tr.id("automaton.register")
    val con = tr.id("automaton.containment")
    val span = tr.open(setup, -1)
    val regMs = Seq.newBuilder[Double]
    val conMs = Seq.newBuilder[Double]
    (1 to Reps + 3).foreach { rep =>
      val t0 = System.nanoTime()
      val dfas = queries.map(q => Dfa.fromRegex(Regex.parse(q.pattern)))
      val t1 = System.nanoTime()
      dfas.foreach(Containment(_))
      val t2 = System.nanoTime()
      if (rep > 3) {
        tr.record(reg, span, t0, t1); tr.record(con, span, t1, t2)
        regMs += (t1 - t0) / 1e6; conMs += (t2 - t1) / 1e6
      }
    }
    tr.close(span)
    Seq("automaton.register_ms" -> Metric(Stats.median(regMs.result()), "ms"),
        "automaton.containment_ms" -> Metric(Stats.median(conMs.result()), "ms"))
  }

  /** Replays the tuples into standalone `SnapshotGraph`s on the engines'
    * slide schedule (`stream.maintain_s`, once per query as each engine keeps
    * its own graph), then scans every vertex's out- and in-edges on the
    * window snapshots at the checkpoints (`stream.*_scan_ns_per_edge`).
    */
  def stream(tuples: Array[Sgt], window: WindowSpec, replays: Int, tr: Trace): Seq[(String, Metric)] = {
    val boundary = new Array[Boolean](tuples.length)
    Model.slideBoundaries(tuples, window).foreach(boundary(_) = true)
    val snapshotAt = Model.checkpoints(tuples, window, 3).toSet + (tuples.length - 1)
    val vertices = (tuples.iterator.map(_.src) ++ tuples.iterator.map(_.dst)).toArray.distinct
    val (replayId, maintainId) = (tr.id("stream.replay"), tr.id("stream.maintain"))
    val (outId, inId) = (tr.id("stream.scan.out"), tr.id("stream.scan.in"))
    val span = tr.open(replayId, -1)
    var maintainNs = 0L
    var outNs = 0L; var outEdges = 0L; var inNs = 0L; var inEdges = 0L

    def scan(g: SnapshotGraph, minTs: Long, out: Boolean): (Long, Long) = {
      var edges = 0L
      val t0 = System.nanoTime()
      var r = 0
      while (r < 10) {
        var j = 0
        while (j < vertices.length) {
          val it = if (out) g.outEdges(vertices(j), minTs) else g.inEdges(vertices(j), minTs)
          while (it.hasNext) { it.next(); edges += 1 }
          j += 1
        }
        r += 1
      }
      val t1 = System.nanoTime()
      tr.record(if (out) outId else inId, span, t0, t1, edges)
      (t1 - t0, edges)
    }

    (0 until replays).foreach { rep =>
      val g = new SnapshotGraph
      var i = 0
      var segStart = System.nanoTime()
      while (i < tuples.length) {
        val t = tuples(i)
        if (boundary(i)) g.pruneExpired(window.lowerBound(t.ts))
        if (t.op == Op.Delete) g.remove(t.src, t.dst, t.label) else g.add(t.src, t.dst, t.label, t.ts)
        if (rep == 0 && snapshotAt(i)) {
          val now = System.nanoTime()
          maintainNs += now - segStart
          tr.record(maintainId, span, segStart, now)
          val minTs = window.lowerBound(t.ts)
          val (on, oe) = scan(g, minTs, out = true); outNs += on; outEdges += oe
          val (in, ie) = scan(g, minTs, out = false); inNs += in; inEdges += ie
          segStart = System.nanoTime()
        }
        i += 1
      }
      val now = System.nanoTime()
      if (now > segStart) { maintainNs += now - segStart; tr.record(maintainId, span, segStart, now) }
    }
    tr.close(span)
    Seq("stream.maintain_s" -> Metric(maintainNs / 1e9, "s"),
        "stream.out_scan_ns_per_edge" -> Metric(outNs.toDouble / math.max(1L, outEdges), "ns"),
        "stream.in_scan_ns_per_edge" -> Metric(inNs.toDouble / math.max(1L, inEdges), "ns"))
  }
}
