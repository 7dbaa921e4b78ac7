(** The one algorithm registry: every name → constructor mapping in the
    repository lives here.  The serving engine, OPEN frames, checkpoints,
    [rbgp serve --alg], [rbgp sim --alg] and the experiment tables all
    build their algorithms through it, so one name and seed give the same
    algorithm everywhere.

    {!all} lists the algorithms that can be driven by an unbounded
    request stream, buildable from [(name, epsilon, seed, instance)]
    alone.  This is the closure the checkpoint format is defined over: a
    snapshot names its algorithm, and {!Engine.resume} rebuilds it through
    {!find}, so everything in {!all} must be a deterministic function of
    the four parameters.  The batch-only [static-oracle] baseline needs
    the whole future trace at build time, which a stream cannot provide;
    it is built only by {!build_for_trace}. *)

type spec = {
  name : string;
  build : epsilon:float -> seed:int -> Rbgp_ring.Instance.t -> Rbgp_ring.Online.t;
}

val all : spec list
(** The paper's two algorithms, the MTS-solver variants of the dynamic
    one, and the streamable baselines. *)

val names : string list

val find : string -> spec
(** Raises [Invalid_argument] listing the known names. *)

val build_for_trace :
  string ->
  epsilon:float ->
  seed:int ->
  trace:int array ->
  Rbgp_ring.Instance.t ->
  Rbgp_ring.Online.t
(** [build_for_trace name ~epsilon ~seed ~trace inst] builds [name] for a
    run over a trace known in advance: ["static-oracle"] is placed for
    [trace], and every other name is [(find name).build ~epsilon ~seed],
    which ignores [trace]. *)
