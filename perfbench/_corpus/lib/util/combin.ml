let subsets_of_size n k =
  if k < 0 || k > n then []
  else
    let rec go start k =
      if k = 0 then [ [] ]
      else
        let rec from i acc =
          if i > n - k then List.rev acc
          else
            let extended = List.map (fun rest -> i :: rest) (go (i + 1) (k - 1)) in
            from (i + 1) (List.rev_append extended acc)
        in
        from start []
    in
    go 0 k

let subsets_up_to n k =
  let rec sizes i acc = if i > k || i > n then List.rev acc else sizes (i + 1) (subsets_of_size n i :: acc) in
  List.concat (sizes 1 [])

let iter_profiles dims f =
  let n = Array.length dims in
  if Array.exists (fun d -> d <= 0) dims then ()
  else begin
    let p = Array.make n 0 in
    let rec bump i =
      if i < 0 then false
      else if p.(i) + 1 < dims.(i) then begin
        p.(i) <- p.(i) + 1;
        true
      end
      else begin
        p.(i) <- 0;
        bump (i - 1)
      end
    in
    let continue = ref true in
    while !continue do
      f p;
      continue := n > 0 && bump (n - 1)
    done
  end

let profiles dims =
  let acc = ref [] in
  iter_profiles dims (fun p -> acc := Array.copy p :: !acc);
  List.rev !acc

let iter_joint_assignments members dims f =
  let m = Array.length members in
  if m = 0 then f [||] 0
  else begin
    let acts = Array.make m 0 in
    let continue = ref true in
    let changed = ref 0 in
    while !continue do
      f acts !changed;
      let rec bump j =
        if j < 0 then false
        else if acts.(j) + 1 < dims.(members.(j)) then begin
          acts.(j) <- acts.(j) + 1;
          changed := j;
          true
        end
        else begin
          acts.(j) <- 0;
          bump (j - 1)
        end
      in
      continue := bump (m - 1)
    done
  end

let joint_assignments members dims =
  let rec go = function
    | [] -> [ [] ]
    | i :: rest ->
      let tails = go rest in
      List.concat_map
        (fun a -> List.map (fun tail -> (i, a) :: tail) tails)
        (List.init dims.(i) (fun a -> a))
  in
  go members

let binomial n k =
  if k < 0 || k > n then 0
  else
    let k = min k (n - k) in
    let rec go i acc = if i > k then acc else go (i + 1) (acc * (n - k + i) / i) in
    go 1 1
