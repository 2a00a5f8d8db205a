(* Row-reduce an augmented matrix over GF(p). Returns the reduced matrix and
   the list of pivot columns. *)
let row_reduce m ncols =
  let rows = Array.length m in
  let pivots = ref [] in
  let rank = ref 0 in
  let col = ref 0 in
  while !rank < rows && !col < ncols do
    (* find pivot *)
    let pivot = ref (-1) in
    for r = !rank to rows - 1 do
      if !pivot < 0 && m.(r).(!col) <> 0 then pivot := r
    done;
    if !pivot >= 0 then begin
      let tmp = m.(!rank) in
      m.(!rank) <- m.(!pivot);
      m.(!pivot) <- tmp;
      let inv = Field.inv m.(!rank).(!col) in
      m.(!rank) <- Array.map (Field.mul inv) m.(!rank);
      for r = 0 to rows - 1 do
        if r <> !rank && m.(r).(!col) <> 0 then begin
          let f = m.(r).(!col) in
          m.(r) <- Array.mapi (fun j v -> Field.sub v (Field.mul f m.(!rank).(j))) m.(r)
        end
      done;
      pivots := (!rank, !col) :: !pivots;
      incr rank
    end;
    incr col
  done;
  (List.rev !pivots, !rank)

let solve a b =
  let rows = Array.length a in
  if rows = 0 then Some [||]
  else begin
    let ncols = Array.length a.(0) in
    let m = Array.init rows (fun r -> Array.append (Array.map Field.of_int a.(r)) [| Field.of_int b.(r) |]) in
    let pivots, _ = row_reduce m ncols in
    (* Inconsistent if a zero row has nonzero rhs. *)
    let consistent =
      Array.for_all
        (fun row ->
          let all_zero = ref true in
          for j = 0 to ncols - 1 do
            if row.(j) <> 0 then all_zero := false
          done;
          (not !all_zero) || row.(ncols) = 0)
        m
    in
    if not consistent then None
    else begin
      let x = Array.make ncols 0 in
      List.iter (fun (r, c) -> x.(c) <- m.(r).(ncols)) pivots;
      (* With free variables at 0, pivot rows may still involve free columns;
         recompute pivot values accounting for them (they are 0, so the
         stored rhs is already correct). *)
      Some x
    end
  end

let rank a =
  let rows = Array.length a in
  if rows = 0 then 0
  else begin
    let ncols = Array.length a.(0) in
    let m = Array.init rows (fun r -> Array.append (Array.map Field.of_int a.(r)) [| 0 |]) in
    let _, rk = row_reduce m ncols in
    rk
  end
