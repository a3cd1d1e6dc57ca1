package repro.perfbench

import scala.collection.mutable

import repro.automaton.{Dfa, Regex}
import repro.stream.{Op, Sgt, WindowSpec}

/** Reference computations the engines' outputs are checked against. They
  * share no code with the engines, `SnapshotGraph` or `repro.batch`: the
  * window is rebuilt from the raw tuples and each query is evaluated on it
  * by a product-graph search written here.
  *
  * Result pairs are packed as `x << 32 | v` into sorted arrays, so a whole
  * result set compares with one `Arrays.equals`.
  */
object Model {

  final case class Edge(src: Long, dst: Long, label: String)

  def pack(x: Long, v: Long): Long = (x << 32) | v

  def packAll(pairs: Iterable[(Long, Long)]): Array[Long] = {
    val a = pairs.iterator.map { case (x, v) => pack(x, v) }.toArray
    java.util.Arrays.sort(a)
    a
  }

  private def sorted(s: mutable.LongMap[Unit]): Array[Long] = {
    val a = s.keysIterator.toArray
    java.util.Arrays.sort(a)
    a
  }

  /** Window content replayed from raw tuples: the freshest copy of each edge
    * wins, a deletion removes the edge, and edges at or below `τ − |W|` are
    * outside the window ending at `τ`.
    */
  final class WindowModel(window: WindowSpec) {
    private val fresh = mutable.HashMap.empty[Edge, Long]

    def apply(t: Sgt): Unit = {
      val e = Edge(t.src, t.dst, t.label)
      t.op match {
        case Op.Insert => fresh(e) = math.max(fresh.getOrElse(e, Long.MinValue), t.ts)
        case Op.Delete => fresh.remove(e)
      }
    }

    def edgesAt(tau: Long): Seq[Edge] = {
      val lo = tau - window.size
      fresh.iterator.collect { case (e, ts) if ts > lo => e }.toSeq
    }
  }

  /** Arbitrary-path RPQ by breadth-first search of the product graph from
    * every `(x, start)`: `(x, v)` is a result iff some `(v, t)` with `t`
    * final is reached through at least one edge and is not `(x, start)`.
    */
  def rapq(edges: Seq[Edge], dfa: Dfa): Array[Long] = {
    val k = dfa.k
    val adj = mutable.LongMap.empty[mutable.ArrayBuffer[Edge]]
    edges.foreach(e => adj.getOrElseUpdate(e.src, mutable.ArrayBuffer.empty) += e)
    val out = mutable.LongMap.empty[Unit]
    adj.keysIterator.foreach { x =>
      val seen = mutable.LongMap.empty[Unit]
      val queue = mutable.Queue.empty[(Long, Int)]
      seen(x * k + dfa.start) = ()
      queue.enqueue((x, dfa.start))
      while (queue.nonEmpty) {
        val (v, s) = queue.dequeue()
        adj.get(v).foreach(_.foreach { e =>
          dfa.trans(s).get(e.label).foreach { t =>
            val id = e.dst * k + t
            if (!seen.contains(id)) {
              seen(id) = ()
              queue.enqueue((e.dst, t))
              if (dfa.finals.contains(t)) out(pack(x, e.dst)) = ()
            }
          }
        })
      }
    }
    sorted(out)
  }

  /** Simple-path results of `a b c`: every vertex-distinct path `x a y b z c w`. */
  def chain3(edges: Seq[Edge], a: String, b: String, c: String): Array[Long] = {
    def adjOf(l: String): Map[Long, Seq[Long]] =
      edges.filter(_.label == l).groupBy(_.src).map { case (s, es) => s -> es.map(_.dst).distinct }
    val (aa, bb, cc) = (adjOf(a), adjOf(b), adjOf(c))
    val out = mutable.LongMap.empty[Unit]
    for {
      (x, ys) <- aa; y <- ys if y != x
      z <- bb.getOrElse(y, Nil) if z != x && z != y
      w <- cc.getOrElse(z, Nil) if w != x && w != y && w != z
    } out(pack(x, w)) = ()
    sorted(out)
  }

  def withoutSelfPairs(pairs: Array[Long]): Array[Long] =
    pairs.filter(p => (p >>> 32) != (p & 0xffffffffL))

  /** Checks the DFA the engines share against the regex's own reference
    * interpreter on every word of up to `maxLen` labels (plus one label from
    * outside the alphabet); returns the first disagreeing word, if any.
    */
  def dfaDisagreement(pattern: String, dfa: Dfa, maxLen: Int): Option[Seq[String]] = {
    val regex = Regex.parse(pattern)
    val sigma = regex.labels.toSeq.sorted :+ "__outside__"
    def words(n: Int): Iterator[List[String]] =
      if (n == 0) Iterator(Nil) else words(n - 1).flatMap(w => sigma.iterator.map(_ :: w))
    (0 to maxLen).iterator.flatMap(words).find(w => regex.matches(w) != dfa.accepts(w))
  }

  /** Indices of the tuples at which an engine's lazy expiry runs: the first
    * tuple opens the schedule, and a tuple whose timestamp is at least `β`
    * past the previous run starts the next one.
    */
  def slideBoundaries(tuples: Array[Sgt], window: WindowSpec): Array[Int] = {
    val out = mutable.ArrayBuffer.empty[Int]
    var last = Long.MinValue
    var i = 0
    while (i < tuples.length) {
      val ts = tuples(i).ts
      if (last == Long.MinValue) last = ts
      else if (ts - last >= window.slide) { out += i; last = ts }
      i += 1
    }
    out.toArray
  }

  /** `n` checkpoints spread over the stream, each on the first slide boundary
    * at or after its share of the stream: right after the engine's expiry
    * pass, its window is exact without forcing one.
    */
  def checkpoints(tuples: Array[Sgt], window: WindowSpec, n: Int): Array[Int] = {
    val bounds = slideBoundaries(tuples, window)
    (1 to n).flatMap { j =>
      val target = tuples.length.toLong * j / (n + 1)
      bounds.find(_ >= target)
    }.distinct.toArray
  }
}
