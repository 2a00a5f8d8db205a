let dot u v =
  if Array.length u <> Array.length v then invalid_arg "Linalg.dot: length mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length u - 1 do
    acc := !acc +. (u.(i) *. v.(i))
  done;
  !acc

let mat_vec a v = Array.map (fun row -> dot row v) a

let transpose a =
  let rows = Array.length a in
  if rows = 0 then [||]
  else
    let cols = Array.length a.(0) in
    Array.init cols (fun j -> Array.init rows (fun i -> a.(i).(j)))

let identity n = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0))

(* Gaussian elimination with partial pivoting on an augmented copy. *)
let solve a b =
  let n = Array.length a in
  if n = 0 then Some [||]
  else begin
    if Array.length b <> n then invalid_arg "Linalg.solve: size mismatch";
    let m = Array.init n (fun i -> Array.append (Array.copy a.(i)) [| b.(i) |]) in
    let singular = ref false in
    (try
       for col = 0 to n - 1 do
         (* Pick the pivot row with the largest magnitude in this column. *)
         let pivot = ref col in
         for r = col + 1 to n - 1 do
           if Float.abs m.(r).(col) > Float.abs m.(!pivot).(col) then pivot := r
         done;
         if Float.abs m.(!pivot).(col) < 1e-12 then begin
           singular := true;
           raise Exit
         end;
         let tmp = m.(col) in
         m.(col) <- m.(!pivot);
         m.(!pivot) <- tmp;
         for r = col + 1 to n - 1 do
           let factor = m.(r).(col) /. m.(col).(col) in
           for c = col to n do
             m.(r).(c) <- m.(r).(c) -. (factor *. m.(col).(c))
           done
         done
       done
     with Exit -> ());
    if !singular then None
    else begin
      let x = Array.make n 0.0 in
      for i = n - 1 downto 0 do
        let s = ref m.(i).(n) in
        for j = i + 1 to n - 1 do
          s := !s -. (m.(i).(j) *. x.(j))
        done;
        x.(i) <- !s /. m.(i).(i)
      done;
      Some x
    end
  end
