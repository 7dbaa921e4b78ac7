let add_varint buf v =
  if v < 0 then invalid_arg "Binc.add_varint: negative";
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))

let add_zigzag buf n = add_varint buf (zigzag n)

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_int_array buf a =
  add_varint buf (Array.length a);
  Array.iter (fun x -> add_zigzag buf x) a

let add_int64 buf v = Buffer.add_int64_le buf v
let add_float buf f = add_int64 buf (Int64.bits_of_float f)

let add_counts buf a =
  add_varint buf (Array.length a);
  Array.iter (fun v -> add_varint buf (int_of_float v)) a

type reader = { data : string; mutable pos : int }

let reader ?(pos = 0) data = { data; pos }

let truncated who pos =
  invalid_arg (Printf.sprintf "Binc.%s: truncated input at byte %d" who pos)

let read_varint r =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if r.pos >= String.length r.data then truncated "read_varint" r.pos;
    if !shift > 62 then invalid_arg "Binc.read_varint: varint too long";
    let b = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !v

let read_zigzag r = unzigzag (read_varint r)

let read_string r =
  let len = read_varint r in
  if r.pos + len > String.length r.data then truncated "read_string" r.pos;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let read_int_array r =
  let len = read_varint r in
  Array.init len (fun _ -> read_zigzag r)

let read_int64 r =
  if r.pos + 8 > String.length r.data then truncated "read_int64" r.pos;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let read_float r = Int64.float_of_bits (read_int64 r)

let read_counts r dst =
  let len = read_varint r in
  if len <> Array.length dst then
    invalid_arg
      (Printf.sprintf "Binc.read_counts: %d counts, expected %d" len
         (Array.length dst));
  for i = 0 to len - 1 do
    let v = read_varint r in
    if v < 0 then invalid_arg "Binc.read_counts: negative count";
    dst.(i) <- float_of_int v
  done
let at_end r = r.pos >= String.length r.data
let reader_pos r = r.pos

(* --- block decoding over byte regions --------------------------------- *)

type bigbytes =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type region = { big : bigbytes; mutable rpos : int; rend : int }

let region ?(pos = 0) big =
  let len = Bigarray.Array1.dim big in
  if pos < 0 || pos > len then invalid_arg "Binc.region: position out of range";
  { big; rpos = pos; rend = len }

let region_of_string s =
  let len = String.length s in
  let big = Bigarray.Array1.create Bigarray.char Bigarray.c_layout len in
  for i = 0 to len - 1 do
    Bigarray.Array1.set big i s.[i]
  done;
  { big; rpos = 0; rend = len }

let region_pos r = r.rpos
let region_at_end r = r.rpos >= r.rend

let region_read_string r len =
  if len < 0 || r.rpos + len > r.rend then
    truncated "region_read_string" r.rpos;
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Bigarray.Array1.get r.big (r.rpos + i))
  done;
  r.rpos <- r.rpos + len;
  Bytes.unsafe_to_string b

let region_read_varint r =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if r.rpos >= r.rend then truncated "region_read_varint" r.rpos;
    if !shift > 62 then invalid_arg "Binc.region_read_varint: varint too long";
    let b = Char.code (Bigarray.Array1.get r.big r.rpos) in
    r.rpos <- r.rpos + 1;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !v

let region_read_zigzag r = unzigzag (region_read_varint r)

(* The bulk decoder behind [Source.next_batch]: one tight loop over the
   mapped bytes, no closure per byte or per frame.  Torn-frame parity with
   the channel reader is load-bearing: complete varints decoded before a
   torn tail are delivered (return value < limit with the cursor parked on
   the torn byte), and only a call that cannot make progress — the torn
   varint is the very next thing in the region — raises.  A clean end of
   region returns 0, the block analogue of [input_varint_opt]'s [None]. *)
let decode_varints r out ~limit =
  if limit < 0 || limit > Array.length out then
    invalid_arg "Binc.decode_varints: bad limit";
  let big = r.big and rend = r.rend in
  let pos = ref r.rpos and count = ref 0 in
  (try
     while !count < limit && !pos < rend do
       let b0 = Char.code (Bigarray.Array1.get big !pos) in
       if b0 < 0x80 then begin
         (* single-byte fast path: the common case for small rings *)
         out.(!count) <- b0;
         incr count;
         incr pos
       end
       else begin
         let v = ref (b0 land 0x7f) and shift = ref 7 and p = ref (!pos + 1) in
         let continue = ref true in
         while !continue do
           if !p >= rend then raise Exit;
           if !shift > 62 then
             invalid_arg "Binc.decode_varints: varint too long";
           let b = Char.code (Bigarray.Array1.get big !p) in
           incr p;
           v := !v lor ((b land 0x7f) lsl !shift);
           shift := !shift + 7;
           continue := b land 0x80 <> 0
         done;
         out.(!count) <- !v;
         incr count;
         pos := !p
       end
     done
   with Exit ->
     (* torn varint at the end of the region: deliver what we have; a call
        that decoded nothing has hit the tear head-on, which is corruption
        (the region is the whole file), not end-of-stream *)
     if !count = 0 then begin
       r.rpos <- !pos;
       truncated "decode_varints" !pos
     end);
  r.rpos <- !pos;
  !count

let output_varint oc v =
  if v < 0 then invalid_arg "Binc.output_varint: negative";
  let v = ref v in
  while !v >= 0x80 do
    output_char oc (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  output_char oc (Char.chr !v)

let output_zigzag oc n = output_varint oc (zigzag n)

exception Torn of int

(* The rest of a varint whose first byte [b0] has its continuation bit
   set, in the order decode_varints checks a region: the stream ending
   here tears the varint ([Torn k], k of its bytes read), and a byte past
   the ninth is a varint too long. *)
let input_varint_tail ic b0 =
  let v = ref (b0 land 0x7f) and shift = ref 7 and continue = ref true in
  while !continue do
    let b = try input_byte ic with End_of_file -> raise (Torn (!shift / 7)) in
    if !shift > 62 then invalid_arg "Binc.input_varint: varint too long";
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !v

let input_varint ic =
  let b0 = input_byte ic in
  if b0 land 0x80 = 0 then b0
  else
    try input_varint_tail ic b0
    with Torn _ -> invalid_arg "Binc.input_varint: truncated input"

let input_varint_opt ic =
  match input_byte ic with
  | exception End_of_file -> None
  | b0 -> if b0 land 0x80 = 0 then Some b0 else Some (input_varint_tail ic b0)

let input_zigzag ic = unzigzag (input_varint ic)
