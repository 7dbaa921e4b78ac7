type journal = { mutable buf : int array; mutable len : int }

type t = {
  inst : Instance.t;
  map : int array;
  loads : int array;
  (* hist.(v) = number of servers whose load is exactly v; together with
     the cached maximum this turns max-load and capacity checks into O(1)
     reads on the serving hot path instead of an O(ell) rescan per
     request. *)
  hist : int array;
  mutable maxl : int;
  mutable jrn : journal option;
}

let of_array (inst : Instance.t) a =
  if Array.length a <> inst.n then invalid_arg "Assignment.of_array: bad length";
  let loads = Array.make inst.ell 0 in
  Array.iter
    (fun s ->
      if s < 0 || s >= inst.ell then
        invalid_arg "Assignment.of_array: server id out of range";
      loads.(s) <- loads.(s) + 1)
    a;
  let hist = Array.make (inst.n + 1) 0 in
  let maxl = ref 0 in
  Array.iter
    (fun l ->
      hist.(l) <- hist.(l) + 1;
      if l > !maxl then maxl := l)
    loads;
  { inst; map = Array.copy a; loads; hist; maxl = !maxl; jrn = None }

let create (inst : Instance.t) = of_array inst inst.initial

(* copies never inherit the journal: they are snapshots (simulator shadows),
   not live algorithm state *)
let copy t =
  {
    inst = t.inst;
    map = Array.copy t.map;
    loads = Array.copy t.loads;
    hist = Array.copy t.hist;
    maxl = t.maxl;
    jrn = None;
  }

(* Move one unit of load from [old_s] to [s] (distinct servers), keeping
   the load histogram and cached maximum in sync.  When the old load was
   the unique maximum, the donor itself now sits at [maxl - 1], so the new
   maximum is exactly one below — no rescan needed. *)
let move_load t old_s s =
  let la = t.loads.(old_s) and lb = t.loads.(s) in
  t.loads.(old_s) <- la - 1;
  t.loads.(s) <- lb + 1;
  t.hist.(la) <- t.hist.(la) - 1;
  t.hist.(la - 1) <- t.hist.(la - 1) + 1;
  t.hist.(lb) <- t.hist.(lb) - 1;
  t.hist.(lb + 1) <- t.hist.(lb + 1) + 1;
  if lb + 1 > t.maxl then t.maxl <- lb + 1
  else if la = t.maxl && t.hist.(la) = 0 then t.maxl <- la - 1

let journal t =
  match t.jrn with
  | Some j -> j
  | None ->
      let j = { buf = Array.make 64 0; len = 0 } in
      t.jrn <- Some j;
      j

let journal_clear j = j.len <- 0

let journal_push j p =
  if j.len = Array.length j.buf then begin
    let bigger = Array.make (2 * j.len) 0 in
    Array.blit j.buf 0 bigger 0 j.len;
    j.buf <- bigger
  end;
  j.buf.(j.len) <- p;
  j.len <- j.len + 1

let n t = t.inst.Instance.n
let server_of t p = t.map.(p)

let set t p s =
  if s < 0 || s >= t.inst.Instance.ell then
    invalid_arg "Assignment.set: server id out of range";
  let old = t.map.(p) in
  if old <> s then begin
    t.map.(p) <- s;
    move_load t old s;
    match t.jrn with None -> () | Some j -> journal_push j p
  end

let load t s = t.loads.(s)
let loads t = Array.copy t.loads
let max_load t = t.maxl

let check_capacity t ~augmentation =
  let bound = (augmentation *. float_of_int t.inst.Instance.k) +. 1e-9 in
  float_of_int t.maxl <= bound

let cuts_edge t e =
  let n = t.inst.Instance.n in
  t.map.(e) <> t.map.((e + 1) mod n)

let cut_edges t =
  let acc = ref [] in
  for e = n t - 1 downto 0 do
    if cuts_edge t e then acc := e :: !acc
  done;
  !acc

let hamming a b =
  if n a <> n b then invalid_arg "Assignment.hamming: size mismatch";
  let d = ref 0 in
  for p = 0 to n a - 1 do
    if a.map.(p) <> b.map.(p) then incr d
  done;
  !d

let diff_into target scratch =
  if n target <> n scratch then invalid_arg "Assignment.diff_into: size mismatch";
  let d = ref 0 in
  for p = 0 to n target - 1 do
    if scratch.map.(p) <> target.map.(p) then begin
      incr d;
      let old = scratch.map.(p) in
      scratch.map.(p) <- target.map.(p);
      move_load scratch old target.map.(p)
    end
  done;
  !d

let restore_array t a =
  if Array.length a <> t.inst.Instance.n then
    invalid_arg "Assignment.restore_array: bad length";
  Array.iteri
    (fun p s ->
      if s < 0 || s >= t.inst.Instance.ell then
        invalid_arg "Assignment.restore_array: server id out of range";
      set t p s)
    a

let to_array t = Array.copy t.map
