(* Struct-of-arrays agent store: flat Bigarray columns per field, a
   balanced contiguous shard partition, and per-(src,dst) cross-shard
   event buffers flushed in lexicographic order. See soa.mli for the
   determinism contract. *)

(* {1 Shard partition} *)

type part = { n : int; shards : int; quot : int; rem : int }
(* Shard s covers [lo, hi) with the first [rem] shards one agent larger:
   sizes are quot+1 for s < rem and quot otherwise. *)

let partition ~n ~shards =
  if n < 0 then invalid_arg "Soa.partition: n < 0";
  if shards < 1 then invalid_arg "Soa.partition: shards < 1";
  let shards = max 1 (min shards (max 1 n)) in
  { n; shards; quot = n / shards; rem = n mod shards }

let n p = p.n
let shards p = p.shards

let bounds p s =
  if s < 0 || s >= p.shards then invalid_arg "Soa.bounds: shard out of range";
  let lo = (s * p.quot) + min s p.rem in
  let size = if s < p.rem then p.quot + 1 else p.quot in
  (lo, lo + size)

let shard_of p i =
  if i < 0 || i >= p.n then invalid_arg "Soa.shard_of: agent out of range";
  let big = p.rem * (p.quot + 1) in
  if i < big then i / (p.quot + 1) else p.rem + ((i - big) / p.quot)

(* {1 Columns} *)

module F64 = struct
  type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  let create len =
    let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
    Bigarray.Array1.fill a 0.0;
    a

  let length = Bigarray.Array1.dim
  let get = Bigarray.Array1.get
  let set = Bigarray.Array1.set
  let uget = Bigarray.Array1.unsafe_get
  let uset = Bigarray.Array1.unsafe_set
  let fill = Bigarray.Array1.fill
  let to_array t = Array.init (length t) (get t)
end

module I32 = struct
  type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  let create len =
    let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len in
    Bigarray.Array1.fill a 0l;
    a

  let length = Bigarray.Array1.dim
  let get t i = Int32.to_int (Bigarray.Array1.get t i)
  let set t i v = Bigarray.Array1.set t i (Int32.of_int v)
  let uget t i = Int32.to_int (Bigarray.Array1.unsafe_get t i)
  let uset t i v = Bigarray.Array1.unsafe_set t i (Int32.of_int v)
  let fill t v = Bigarray.Array1.fill t (Int32.of_int v)
  let to_array t = Array.init (length t) (get t)
end

module I8 = struct
  type t = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  let create len =
    let a = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout len in
    Bigarray.Array1.fill a 0;
    a

  let length = Bigarray.Array1.dim
  let get = Bigarray.Array1.get
  let set = Bigarray.Array1.set
  let uget = Bigarray.Array1.unsafe_get
  let uset = Bigarray.Array1.unsafe_set
  let fill = Bigarray.Array1.fill
end

(* {1 Cross-shard event exchange} *)

module Exchange = struct
  (* One growable int buffer per (src, dst) pair, storing events as two
     consecutive ints. buffers.(src * shards + dst) is written only by
     the domain running shard [src] during a parallel phase, which is
     what makes [post] lock-free; [flush] runs after the barrier. *)
  type buf = { mutable data : int array; mutable len : int }

  type t = { shards : int; buffers : buf array }

  let create ~shards =
    if shards < 1 then invalid_arg "Soa.Exchange.create: shards < 1";
    {
      shards;
      buffers = Array.init (shards * shards) (fun _ -> { data = [||]; len = 0 });
    }

  let post t ~src ~dst a b =
    let buf = t.buffers.((src * t.shards) + dst) in
    let need = buf.len + 2 in
    if need > Array.length buf.data then begin
      let cap = max 64 (2 * Array.length buf.data) in
      let data = Array.make (max cap need) 0 in
      Array.blit buf.data 0 data 0 buf.len;
      buf.data <- data
    end;
    buf.data.(buf.len) <- a;
    buf.data.(buf.len + 1) <- b;
    buf.len <- buf.len + 2

  let pending t =
    Array.fold_left (fun acc buf -> acc + (buf.len / 2)) 0 t.buffers

  let flush t f =
    let replayed = ref 0 in
    for src = 0 to t.shards - 1 do
      for dst = 0 to t.shards - 1 do
        let buf = t.buffers.((src * t.shards) + dst) in
        let len = buf.len in
        let i = ref 0 in
        while !i < len do
          f ~src ~dst buf.data.(!i) buf.data.(!i + 1);
          i := !i + 2
        done;
        replayed := !replayed + (len / 2);
        buf.len <- 0
      done
    done;
    !replayed
end
